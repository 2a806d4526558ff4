/* Native walker kernels over CSR arrays: one kernel per walk.
 *
 * Compiled on demand by repro/sampling/_native.py (cc -O2 -shared
 * -fPIC) and called through ctypes.  Every kernel consumes
 * pre-drawn uniforms in [0, 1) supplied by the caller, one protocol-
 * defined draw order per walk type, and does all weight arithmetic in
 * exact int64 — so the pure-Python mirror in
 * repro/sampling/vectorized.py reproduces these walks bit for bit.
 *
 * The only floating-point operation is the scaling of a uniform into
 * an integer range, (int64_t)(u * (double)range), which is the same
 * IEEE-754 double multiply + truncation CPython performs for
 * int(u * range).  The clamp to range - 1 guards the (probability ~0)
 * rounding-up of u values adjacent to 1.0.
 *
 * Reentrancy contract: these kernels run concurrently from many
 * threads while ctypes has released the GIL, over one shared CSR
 * graph.  Keep them stateless — no static/global storage, no
 * allocation, writes only to the caller-owned output buffers (and,
 * for FS, the caller's private frontier and Fenwick scratch arrays).
 *
 * Outputs.  Each kernel advances the walker state and hands every
 * stat-bearing step (the step's target vertex; for MH, accepted
 * proposals only) to whichever caller-owned outputs are non-NULL
 * (ctypes maps Python None to NULL):
 *
 *   out_u[k], out_v[k]          the step record (trace path): the
 *                               edge crossed at step k (MH: the k-th
 *                               accepted edge), plus out_idx[k] (FS:
 *                               the walker that moved) and
 *                               out_visited[k] (MH: the position
 *                               after every proposal)
 *   deg_counts[deg(target)]++   exact int64 per-degree visit counts,
 *                               length max_degree + 1
 *   visit_counts[target]++      exact int64 per-vertex visit counts,
 *                               length num_vertices
 *   edge_keys[k] = u * key_base + v
 *                               append-order edge keys; key_base is
 *                               num_vertices, so keys decode uniquely
 *                               and sort in (u, v) order
 *
 * The trace path passes the step-record buffers and NULL counts; the
 * block path (repro/sampling/fused.py) passes the counts its
 * accumulators need and NULL step records.  Either way the walk — and
 * so the walker state left behind — is the same.  All block contents
 * are exact integers; float statistics (1/deg reweighting, eq. (7)/(9)
 * sums) are derived in Python from the counts, so block, pure-Python
 * and trace-path estimates are bit-identical.  Counts are INCREMENTED,
 * never zeroed, so many kernel calls may fold into one block.
 *
 * Zero-degree guard.  A step from a vertex with no neighbours would
 * index before its row.  Validated graphs never reach one, but an
 * unvalidated CSR can, so the SRW and MH kernels check the degree
 * before each step and return a negative status instead of stepping.
 * FS under degree selection never picks a zero-degree walker, and fails
 * once the frontier's total degree is zero; under uniform selection it
 * checks the picked walker's degree and fails if it is zero.
 *
 * A failing kernel has already folded the steps before the stuck one
 * into the caller's counts and walker state, so the caller must discard
 * them.
 */

#include <stdint.h>

static inline int64_t scale_uniform(double u, int64_t range) {
    int64_t value = (int64_t)(u * (double)range);
    return value >= range ? range - 1 : value;
}

/* Simple random walks: `steps` transitions for each of the
 * `num_walkers` walkers in `walkers`, walker by walker, in place.
 * Walker w consumes uniforms[w * steps, (w + 1) * steps), one per
 * step, and its k-th step is step w * steps + k of every output.
 * Returns 0, or -1 - w when walker w stands on a zero-degree vertex
 * when it must step; its slot then holds that vertex and the walkers
 * after it are left untouched. */
int64_t repro_rw_steps_acc(const int64_t *indptr, const int64_t *indices,
                           int64_t *walkers, int64_t num_walkers,
                           int64_t steps, const double *uniforms,
                           int64_t key_base, int64_t *deg_counts,
                           int64_t *visit_counts, int64_t *edge_keys,
                           int64_t *out_u, int64_t *out_v) {
    for (int64_t w = 0; w < num_walkers; w++) {
        int64_t current = walkers[w];
        for (int64_t k = w * steps; k < (w + 1) * steps; k++) {
            int64_t row = indptr[current];
            int64_t degree = indptr[current + 1] - row;
            if (degree <= 0) {
                walkers[w] = current;
                return -1 - w;
            }
            int64_t next = indices[row + scale_uniform(uniforms[k], degree)];
            if (deg_counts)
                deg_counts[indptr[next + 1] - indptr[next]]++;
            if (visit_counts)
                visit_counts[next]++;
            if (edge_keys)
                edge_keys[k] = current * key_base + next;
            if (out_u)
                out_u[k] = current;
            if (out_v)
                out_v[k] = next;
            current = next;
        }
        walkers[w] = current;
    }
    return 0;
}

/* m-dimensional Frontier Sampling; updates `frontier` in place.
 *
 * degree_selection != 0 (Algorithm 1): each step consumes ONE uniform
 * u, scaled onto the frontier's total degree; the walker bucket that
 * holds it yields both the walker index and the offset of the crossed
 * edge inside that walker's neighbor row.  (Picking a uniform point
 * in the concatenated incident-edge lists IS the degree-proportional
 * walker pick followed by a uniform neighbor pick.)  The bucket is
 * found by an O(log m) descent of a binary indexed tree over the
 * frontier degree vector, kept in the caller-owned `fenwick` scratch
 * (length m + 1, required in this mode).  Degrees are exact int64, so
 * the descent selects the same (walker, offset) pair as the linear
 * cumulative-degree scan the pure-Python mirror runs.
 *
 * degree_selection == 0 (uniform-walker ablation): two uniforms per
 * step — walker index, then neighbor offset; `fenwick` may be NULL.
 *
 * Returns 0; -1 if the frontier's total degree is ever <= 0 (degree
 * selection); or -2 - idx when uniform selection picks walker idx on a
 * zero-degree vertex (frontier[idx] then holds that vertex). */
int64_t repro_fs_steps_acc(const int64_t *indptr, const int64_t *indices,
                           int64_t *frontier, int64_t m, int64_t steps,
                           int64_t degree_selection, const double *uniforms,
                           int64_t key_base, int64_t *deg_counts,
                           int64_t *visit_counts, int64_t *edge_keys,
                           int64_t *fenwick, int64_t *out_u, int64_t *out_v,
                           int64_t *out_idx) {
    int64_t total = 0;
    for (int64_t i = 0; i < m; i++)
        total += indptr[frontier[i] + 1] - indptr[frontier[i]];
    int64_t top_bit = 0;
    if (degree_selection) {
        for (int64_t i = 0; i <= m; i++)
            fenwick[i] = 0;
        for (int64_t i = 0; i < m; i++) {
            int64_t degree = indptr[frontier[i] + 1] - indptr[frontier[i]];
            for (int64_t j = i + 1; j <= m; j += j & (-j))
                fenwick[j] += degree;
        }
        top_bit = 1;
        while (top_bit * 2 <= m)
            top_bit *= 2;
    }
    for (int64_t k = 0; k < steps; k++) {
        int64_t idx, offset;
        if (degree_selection) {
            if (total <= 0)
                return -1;
            /* Largest pos with prefix_degree(pos) <= target: the walker
             * bucket [prefix(idx), prefix(idx + 1)) holding `target`
             * (zero-degree buckets are empty, so they are never
             * picked).  target < total keeps pos < m. */
            int64_t pos = 0, rem = scale_uniform(uniforms[k], total);
            for (int64_t bit = top_bit; bit; bit >>= 1) {
                int64_t nxt = pos + bit;
                if (nxt <= m && fenwick[nxt] <= rem) {
                    pos = nxt;
                    rem -= fenwick[nxt];
                }
            }
            idx = pos;
            offset = rem;
        } else {
            idx = scale_uniform(uniforms[2 * k], m);
            int64_t vertex = frontier[idx];
            int64_t degree = indptr[vertex + 1] - indptr[vertex];
            if (degree <= 0)
                return -2 - idx;
            offset = scale_uniform(uniforms[2 * k + 1], degree);
        }
        int64_t current = frontier[idx];
        int64_t old_degree = indptr[current + 1] - indptr[current];
        int64_t next = indices[indptr[current] + offset];
        int64_t new_degree = indptr[next + 1] - indptr[next];
        if (deg_counts)
            deg_counts[new_degree]++;
        if (visit_counts)
            visit_counts[next]++;
        if (edge_keys)
            edge_keys[k] = current * key_base + next;
        if (out_u)
            out_u[k] = current;
        if (out_v)
            out_v[k] = next;
        if (out_idx)
            out_idx[k] = idx;
        frontier[idx] = next;
        total += new_degree - old_degree;
        if (degree_selection && new_degree != old_degree)
            for (int64_t j = idx + 1; j <= m; j += j & (-j))
                fenwick[j] += new_degree - old_degree;
    }
    return 0;
}

/* Metropolis-Hastings walk targeting the uniform vertex law.
 * Draws: two uniforms per step (proposal offset, accept test).
 * Accept iff u2 * deg(proposal) < deg(current), i.e. with probability
 * min(1, deg(current) / deg(proposal)).  Only ACCEPTED proposals are
 * stat-bearing (the streaming estimators consume accepted transitions
 * only): out_eu/out_ev and edge_keys are filled densely over
 * [0, accepted), while out_visited gets one entry per proposal.
 * Writes the final walker position to out_state[0] and returns the
 * accepted count, or -1 when the walker stands on a zero-degree vertex
 * when it must step (out_state[0] then holds that vertex). */
int64_t repro_mh_steps_acc(const int64_t *indptr, const int64_t *indices,
                           int64_t start, int64_t steps,
                           const double *uniforms, int64_t key_base,
                           int64_t *deg_counts, int64_t *visit_counts,
                           int64_t *edge_keys, int64_t *out_state,
                           int64_t *out_eu, int64_t *out_ev,
                           int64_t *out_visited) {
    int64_t current = start;
    int64_t accepted = 0;
    for (int64_t k = 0; k < steps; k++) {
        int64_t row = indptr[current];
        int64_t deg_u = indptr[current + 1] - row;
        if (deg_u <= 0) {
            out_state[0] = current;
            return -1;
        }
        int64_t proposal =
            indices[row + scale_uniform(uniforms[2 * k], deg_u)];
        int64_t deg_v = indptr[proposal + 1] - indptr[proposal];
        if (uniforms[2 * k + 1] * (double)deg_v < (double)deg_u) {
            if (deg_counts)
                deg_counts[deg_v]++;
            if (visit_counts)
                visit_counts[proposal]++;
            if (edge_keys)
                edge_keys[accepted] = current * key_base + proposal;
            if (out_eu)
                out_eu[accepted] = current;
            if (out_ev)
                out_ev[accepted] = proposal;
            accepted++;
            current = proposal;
        }
        if (out_visited)
            out_visited[k] = current;
    }
    out_state[0] = current;
    return accepted;
}
