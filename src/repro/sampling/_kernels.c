/* Native walker kernels over CSR arrays: one kernel per walk, and two
 * graph-generator kernels after them.
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
 * Per-lane locals live on the stack; all other scratch is the
 * caller's.
 *
 * Batches.  Every walk kernel advances a batch of R replicates of one
 * method in one call, each replicate with W walkers (SRW and MH 1,
 * MultipleRW its walker count, FS its frontier's m) and S steps (MH:
 * proposals).  Every array is replicate-major:
 *
 *   walkers[r * W + w]          replicate r's walker w, in place
 *   uniforms[r * D + j]         replicate r's row: the D draws of its
 *                               own generator for this call, in the
 *                               order one replicate alone would read
 *   out_*[r * S + k], edge_keys[r * S + k]
 *                               replicate r's k-th step record
 *   deg_counts[r], visit_counts[r]
 *                               replicate r's count arrays: an array
 *                               of R pointers, any of them NULL
 *
 * A chain is a run of steps that depend only on each other: each
 * walker of SRW, MultipleRW and MH, and a whole FS frontier.  Chains
 * never read each other's state, so a kernel steps up to LANES of them
 * in lockstep and their cache misses overlap; each chain's steps,
 * counts and final state equal those of the chain walked alone.
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
 *   deg_counts[r][deg(target)]++
 *                               exact int64 per-degree visit counts,
 *                               length max_degree + 1
 *   visit_counts[r][target]++   exact int64 per-vertex visit counts,
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
 * before each step and stop a chain instead of stepping it.  FS under
 * degree selection never picks a zero-degree walker, and stops once the
 * frontier's total degree is zero; under uniform selection it checks
 * the picked walker's degree and stops if it is zero.  The other chains
 * run on.  A kernel returns 0, or -1 - c for the lowest-indexed chain c
 * that stopped (replicate first, then walker: c = r * W + w), which is
 * the chain a one-after-another walk of the batch stops at first.  Its
 * walker slot then holds the zero-degree vertex; an FS frontier whose
 * total degree reached zero reports its walker 0.
 *
 * A failing kernel has already folded other steps into the caller's
 * counts and walker state, so the caller must discard them.
 *
 * Generator kernels.  repro_ba_attach and repro_gnm_edges run the draw
 * loops of repro/generators/ba.py and er.py on the caller's own
 * Mersenne Twister words (repro.util.rng.run_on_words), so they build
 * the loops' graphs bit for bit.  Outputs, all caller-owned:
 *
 *   endpoints[2e], endpoints[2e + 1]
 *                               BA: edge e's (head, tail), the seed
 *                               star first, in the loop's append order
 *   heads[e], tails[e]          G(n, m): edge e in draw order
 *   table                       scratch: BA's emulated set table plus
 *                               a spill for its resizes; G(n, m)'s
 *                               open-addressing set of edge keys
 *
 * Each returns the number of words it consumed (>= 0); -1 when the
 * words ran out, so the caller re-runs it on a longer prefix of the same
 * stream; BA returns -2 when its set outgrows the scratch table.  They
 * allocate nothing and keep no state between calls.
 */

#include <stdint.h>

/* Chains stepped in lockstep by one kernel loop. */
#define LANES 8

static inline int64_t scale_uniform(double u, int64_t range) {
    int64_t value = (int64_t)(u * (double)range);
    return value >= range ? range - 1 : value;
}

/* The lanes [first, first + lanes) of a group of chains. */
static inline int64_t group_size(int64_t first, int64_t chains) {
    return chains - first < LANES ? chains - first : LANES;
}

/* Record that `chain` stopped: the lowest stopped chain wins. */
static inline int64_t lowest(int64_t stopped, int64_t chain) {
    return stopped < 0 || chain < stopped ? chain : stopped;
}

/* Simple random walks: `steps` transitions for each of the
 * `num_chains` walkers in `walkers` (a batch of replicates with
 * `chain_width` walkers each), in place.  Chain c reads uniforms
 * [c * steps, (c + 1) * steps), one per step, and its k-th step is
 * step c * steps + k of every output; its counts go to replicate
 * c / chain_width.  Each step runs in two passes over the lanes: pick
 * the crossed edge and prefetch the target's row, then read that row
 * and fold the step. */
int64_t repro_rw_steps_acc(const int64_t *indptr, const int64_t *indices,
                           int64_t *walkers, int64_t num_chains,
                           int64_t chain_width, int64_t steps,
                           const double *uniforms, int64_t key_base,
                           int64_t **deg_counts, int64_t **visit_counts,
                           int64_t *edge_keys, int64_t *out_u,
                           int64_t *out_v) {
    for (int64_t first = 0; first < num_chains; first += LANES) {
        int64_t lanes = group_size(first, num_chains), stopped = -1;
        int64_t current[LANES], row[LANES], degree[LANES], next[LANES];
        int64_t *degs[LANES], *visits[LANES];
        unsigned live = 0;
        for (int64_t l = 0; l < lanes; l++) {
            int64_t r = (first + l) / chain_width;
            current[l] = walkers[first + l];
            row[l] = indptr[current[l]];
            degree[l] = indptr[current[l] + 1] - row[l];
            degs[l] = deg_counts ? deg_counts[r] : 0;
            visits[l] = visit_counts ? visit_counts[r] : 0;
            live |= 1u << l;
        }
        for (int64_t k = 0; k < steps && live; k++) {
            for (int64_t l = 0; l < lanes; l++) {
                if (!(live >> l & 1))
                    continue;
                if (degree[l] <= 0) {
                    live &= ~(1u << l);
                    stopped = lowest(stopped, first + l);
                    continue;
                }
                double u = uniforms[(first + l) * steps + k];
                next[l] = indices[row[l] + scale_uniform(u, degree[l])];
                __builtin_prefetch(&indptr[next[l]]);
            }
            for (int64_t l = 0; l < lanes; l++) {
                if (!(live >> l & 1))
                    continue;
                int64_t slot = (first + l) * steps + k, v = next[l];
                row[l] = indptr[v];
                degree[l] = indptr[v + 1] - row[l];
                if (degs[l])
                    degs[l][degree[l]]++;
                if (visits[l])
                    visits[l][v]++;
                if (edge_keys)
                    edge_keys[slot] = current[l] * key_base + v;
                if (out_u)
                    out_u[slot] = current[l];
                if (out_v)
                    out_v[slot] = v;
                current[l] = v;
            }
        }
        for (int64_t l = 0; l < lanes; l++)
            walkers[first + l] = current[l];
        if (stopped >= 0)
            return -1 - stopped;
    }
    return 0;
}

/* m-dimensional Frontier Sampling over a batch of `replicates`
 * frontiers of m walkers each; updates `frontier` in place.
 *
 * degree_selection != 0 (Algorithm 1): each step consumes ONE uniform
 * u, scaled onto the frontier's total degree; the walker bucket that
 * holds it yields both the walker index and the offset of the crossed
 * edge inside that walker's neighbor row.  (Picking a uniform point
 * in the concatenated incident-edge lists IS the degree-proportional
 * walker pick followed by a uniform neighbor pick.)  The bucket is
 * found by an O(log m) descent of a binary indexed tree over the
 * frontier degree vector, kept in the caller-owned `fenwick` scratch
 * (m + 1 entries per replicate, required in this mode).  Degrees are
 * exact int64, so the descent selects the same (walker, offset) pair
 * as the linear cumulative-degree scan the pure-Python mirror runs.
 *
 * degree_selection == 0 (uniform-walker ablation): two uniforms per
 * step — walker index, then neighbor offset; `fenwick` may be NULL.
 *
 * Each frontier is one chain.  A lockstep step runs three passes over
 * the lanes: pick the walker and prefetch the crossed edge; read the
 * target and prefetch its row; fold the counts and update the Fenwick
 * tree.  Replicate r stops when its total degree is <= 0 (degree
 * selection; reported as chain r * m) or when uniform selection picks
 * its walker idx on a zero-degree vertex (chain r * m + idx). */
int64_t repro_fs_steps_acc(const int64_t *indptr, const int64_t *indices,
                           int64_t *frontier, int64_t replicates, int64_t m,
                           int64_t steps, int64_t degree_selection,
                           const double *uniforms, int64_t key_base,
                           int64_t **deg_counts, int64_t **visit_counts,
                           int64_t *edge_keys, int64_t *fenwick,
                           int64_t *out_u, int64_t *out_v,
                           int64_t *out_idx) {
    int64_t draws = degree_selection ? 1 : 2, top_bit = 1;
    while (top_bit * 2 <= m)
        top_bit *= 2;
    for (int64_t first = 0; first < replicates; first += LANES) {
        int64_t lanes = group_size(first, replicates), stopped = -1;
        int64_t total[LANES], idx[LANES], edge[LANES], current[LANES];
        int64_t old_degree[LANES], next[LANES];
        int64_t *walkers[LANES], *tree[LANES], *degs[LANES], *visits[LANES];
        unsigned live = 0;
        for (int64_t l = 0; l < lanes; l++) {
            int64_t r = first + l;
            walkers[l] = frontier + r * m;
            tree[l] = degree_selection ? fenwick + r * (m + 1) : 0;
            degs[l] = deg_counts ? deg_counts[r] : 0;
            visits[l] = visit_counts ? visit_counts[r] : 0;
            total[l] = 0;
            for (int64_t i = 0; i <= m && tree[l]; i++)
                tree[l][i] = 0;
            for (int64_t i = 0; i < m; i++) {
                int64_t v = walkers[l][i], degree = indptr[v + 1] - indptr[v];
                total[l] += degree;
                for (int64_t j = i + 1; j <= m && tree[l]; j += j & (-j))
                    tree[l][j] += degree;
            }
            live |= 1u << l;
        }
        for (int64_t k = 0; k < steps && live; k++) {
            for (int64_t l = 0; l < lanes; l++) {
                if (!(live >> l & 1))
                    continue;
                const double *u = uniforms + (first + l) * draws * steps
                                  + draws * k;
                int64_t pick, offset, vertex, base, degree;
                if (degree_selection) {
                    if (total[l] <= 0) {
                        live &= ~(1u << l);
                        stopped = lowest(stopped, (first + l) * m);
                        continue;
                    }
                    /* Largest pos with prefix_degree(pos) <= target: the
                     * walker bucket [prefix(idx), prefix(idx + 1))
                     * holding `target` (zero-degree buckets are empty,
                     * so they are never picked).  target < total keeps
                     * pos < m.  tree[0] is always 0, so an out-of-range
                     * probe reads it and is never taken. */
                    int64_t pos = 0, rem = scale_uniform(u[0], total[l]);
                    for (int64_t bit = top_bit; bit; bit >>= 1) {
                        int64_t probe = pos + bit, inside = probe <= m;
                        int64_t weight = tree[l][inside ? probe : 0];
                        int64_t take = -(inside & (weight <= rem));
                        pos += bit & take;
                        rem -= weight & take;
                    }
                    pick = pos;
                    offset = rem;
                    vertex = walkers[l][pick];
                    base = indptr[vertex];
                    degree = indptr[vertex + 1] - base;
                } else {
                    pick = scale_uniform(u[0], m);
                    vertex = walkers[l][pick];
                    base = indptr[vertex];
                    degree = indptr[vertex + 1] - base;
                    if (degree <= 0) {
                        live &= ~(1u << l);
                        stopped = lowest(stopped, (first + l) * m + pick);
                        continue;
                    }
                    offset = scale_uniform(u[1], degree);
                }
                idx[l] = pick;
                current[l] = vertex;
                old_degree[l] = degree;
                edge[l] = base + offset;
                __builtin_prefetch(&indices[edge[l]]);
            }
            for (int64_t l = 0; l < lanes; l++) {
                if (!(live >> l & 1))
                    continue;
                next[l] = indices[edge[l]];
                __builtin_prefetch(&indptr[next[l]]);
            }
            for (int64_t l = 0; l < lanes; l++) {
                if (!(live >> l & 1))
                    continue;
                int64_t slot = (first + l) * steps + k, v = next[l];
                int64_t new_degree = indptr[v + 1] - indptr[v];
                if (degs[l])
                    degs[l][new_degree]++;
                if (visits[l])
                    visits[l][v]++;
                if (edge_keys)
                    edge_keys[slot] = current[l] * key_base + v;
                if (out_u)
                    out_u[slot] = current[l];
                if (out_v)
                    out_v[slot] = v;
                if (out_idx)
                    out_idx[slot] = idx[l];
                walkers[l][idx[l]] = v;
                total[l] += new_degree - old_degree[l];
                if (tree[l] && new_degree != old_degree[l])
                    for (int64_t j = idx[l] + 1; j <= m; j += j & (-j))
                        tree[l][j] += new_degree - old_degree[l];
            }
        }
        if (stopped >= 0)
            return -1 - stopped;
    }
    return 0;
}

/* Metropolis-Hastings walks targeting the uniform vertex law, one
 * walker per chain; updates `walkers` in place.
 * Draws: two uniforms per step (proposal offset, accept test); chain c
 * reads uniforms[2 * c * steps + 2 * k] and the one after it.
 * Accept iff u2 * deg(proposal) < deg(current), i.e. with probability
 * min(1, deg(current) / deg(proposal)).  Only ACCEPTED proposals are
 * stat-bearing (the streaming estimators consume accepted transitions
 * only): chain c fills out_eu/out_ev and edge_keys densely over
 * [c * steps, c * steps + accepted[c]), while out_visited gets one entry
 * per proposal.  Each step runs in two passes over the lanes: read the
 * proposal and prefetch its row, then run the accept test. */
int64_t repro_mh_steps_acc(const int64_t *indptr, const int64_t *indices,
                           int64_t *walkers, int64_t num_chains,
                           int64_t steps, const double *uniforms,
                           int64_t key_base, int64_t **deg_counts,
                           int64_t **visit_counts, int64_t *edge_keys,
                           int64_t *accepted, int64_t *out_eu,
                           int64_t *out_ev, int64_t *out_visited) {
    for (int64_t first = 0; first < num_chains; first += LANES) {
        int64_t lanes = group_size(first, num_chains), stopped = -1;
        int64_t current[LANES], row[LANES], degree[LANES], proposal[LANES];
        int64_t taken[LANES];
        int64_t *degs[LANES], *visits[LANES];
        unsigned live = 0;
        for (int64_t l = 0; l < lanes; l++) {
            current[l] = walkers[first + l];
            row[l] = indptr[current[l]];
            degree[l] = indptr[current[l] + 1] - row[l];
            taken[l] = 0;
            degs[l] = deg_counts ? deg_counts[first + l] : 0;
            visits[l] = visit_counts ? visit_counts[first + l] : 0;
            live |= 1u << l;
        }
        for (int64_t k = 0; k < steps && live; k++) {
            for (int64_t l = 0; l < lanes; l++) {
                if (!(live >> l & 1))
                    continue;
                if (degree[l] <= 0) {
                    live &= ~(1u << l);
                    stopped = lowest(stopped, first + l);
                    continue;
                }
                double u = uniforms[2 * ((first + l) * steps + k)];
                proposal[l] = indices[row[l] + scale_uniform(u, degree[l])];
                __builtin_prefetch(&indptr[proposal[l]]);
            }
            for (int64_t l = 0; l < lanes; l++) {
                if (!(live >> l & 1))
                    continue;
                int64_t base = (first + l) * steps, v = proposal[l];
                int64_t v_row = indptr[v], v_degree = indptr[v + 1] - v_row;
                double u = uniforms[2 * (base + k) + 1];
                if (u * (double)v_degree < (double)degree[l]) {
                    int64_t slot = base + taken[l]++;
                    if (degs[l])
                        degs[l][v_degree]++;
                    if (visits[l])
                        visits[l][v]++;
                    if (edge_keys)
                        edge_keys[slot] = current[l] * key_base + v;
                    if (out_eu)
                        out_eu[slot] = current[l];
                    if (out_ev)
                        out_ev[slot] = v;
                    current[l] = v;
                    row[l] = v_row;
                    degree[l] = v_degree;
                }
                if (out_visited)
                    out_visited[base + k] = current[l];
            }
        }
        for (int64_t l = 0; l < lanes; l++) {
            walkers[first + l] = current[l];
            accepted[first + l] = taken[l];
        }
        if (stopped >= 0)
            return -1 - stopped;
    }
    return 0;
}

/* Graph generators on the caller's Mersenne Twister words.
 *
 * `words` holds the 32-bit words the caller's random.Random would
 * return from getrandbits(32) next, one per int64.  A draw below
 * `range` is CPython's randrange(range) for range < 2^31: the word
 * shifted right by 32 - range.bit_length(), drawn again while it is
 * >= range. */

static inline int shift_for(int64_t range) {
    int bits = 0;
    while (bits < 32 && (range >> bits) != 0)
        bits++;
    return 32 - bits;
}

static inline int64_t draw_below(const int64_t *words, int64_t num_words,
                                 int64_t *next, int64_t range, int shift) {
    while (*next < num_words) {
        int64_t value = words[(*next)++] >> shift;
        if (value < range)
            return value;
    }
    return -1;
}

/* CPython's set table for non-negative int keys (a key is its own
 * hash): first slot key & mask, then 9 linear probes when they fit,
 * then perturb >>= 5; slot = (5 * slot + 1 + perturb) & mask.  -1
 * marks a free slot.  Returns 1 when `key` was added, 0 when present. */
static inline int set_add(int64_t *table, uint64_t mask, int64_t key) {
    uint64_t perturb = (uint64_t)key;
    uint64_t slot = (uint64_t)key & mask;
    for (;;) {
        int64_t *entry = table + slot;
        int probes = slot + 9 <= mask ? 9 : 0;
        do {
            if (*entry < 0) {
                *entry = key;
                return 1;
            }
            if (*entry == key)
                return 0;
            entry++;
        } while (probes--);
        perturb >>= 5;
        slot = (slot * 5 + 1 + perturb) & mask;
    }
}

/* Barabasi-Albert attachment: the draw loop of
 * repro.generators.ba.barabasi_albert.  Fills `endpoints` (length
 * 2 * k * (num_vertices - k)) with every edge's (head, tail): the
 * star on 0..k, then for each new vertex its k distinct targets, each
 * picked at a uniform position of the endpoints written so far, in
 * the order a Python set of them iterates.  `table` is the set's
 * scratch: `table_size` slots (a power of two at least as large as
 * the set ever grows), followed by k entries that hold its keys while
 * it resizes.  The set starts at 8 slots and, after an insert that
 * leaves used * 5 >= mask * 3, grows to the smallest power of two
 * above 4 * used (2 * used past 50000), re-inserting its keys in
 * slot order.  Returns the words consumed, -1 when they run out, or
 * -2 when the set outgrows `table_size`. */
int64_t repro_ba_attach(const int64_t *words, int64_t num_words,
                        int64_t num_vertices, int64_t k, int64_t *endpoints,
                        int64_t *table, int64_t table_size) {
    int64_t *spill = table + table_size;
    int64_t length = 0, next = 0;
    if (table_size < 8)
        return -2;
    for (int64_t v = 1; v <= k; v++) {
        endpoints[length++] = 0;
        endpoints[length++] = v;
    }
    for (int64_t vertex = k + 1; vertex < num_vertices; vertex++) {
        int shift = shift_for(length);
        int64_t size = 8, used = 0;
        for (int64_t i = 0; i < size; i++)
            table[i] = -1;
        while (used < k) {
            int64_t pick = draw_below(words, num_words, &next, length, shift);
            if (pick < 0)
                return -1;
            if (!set_add(table, (uint64_t)(size - 1), endpoints[pick]))
                continue;
            used++;
            if (used * 5 < (size - 1) * 3)
                continue;
            int64_t wanted = used > 50000 ? used * 2 : used * 4, kept = 0;
            int64_t new_size = 8;
            while (new_size <= wanted)
                new_size *= 2;
            if (new_size > table_size)
                return -2;
            for (int64_t i = 0; i < size; i++)
                if (table[i] >= 0)
                    spill[kept++] = table[i];
            size = new_size;
            for (int64_t i = 0; i < size; i++)
                table[i] = -1;
            for (int64_t i = 0; i < kept; i++)
                set_add(table, (uint64_t)(size - 1), spill[i]);
        }
        for (int64_t i = 0; i < size; i++) {
            if (table[i] >= 0) {
                endpoints[length++] = vertex;
                endpoints[length++] = table[i];
            }
        }
    }
    return next;
}

/* G(n, m) edges: the draw loop of repro.generators.er.gnm_edges.
 * Each edge is a pair of draws below n; loops and repeats of an
 * earlier edge are drawn again.  Writes the m edges in draw order to
 * heads[e], tails[e].  `table` is an open-addressing set of the
 * canonical keys min * n + max: `table_size` slots, a power of two
 * of at least 2 and above m.  Returns the words consumed or -1 when
 * they run out. */
int64_t repro_gnm_edges(const int64_t *words, int64_t num_words,
                        int64_t num_vertices, int64_t num_edges,
                        int64_t *heads, int64_t *tails, int64_t *table,
                        int64_t table_size) {
    int64_t next = 0;
    int shift = shift_for(num_vertices);
    int hash_shift = 64;
    for (int64_t i = 0; i < table_size; i++)
        table[i] = -1;
    for (int64_t size = table_size; size > 1; size /= 2)
        hash_shift--;
    for (int64_t e = 0; e < num_edges;) {
        int64_t u = draw_below(words, num_words, &next, num_vertices, shift);
        int64_t v = draw_below(words, num_words, &next, num_vertices, shift);
        if (u < 0 || v < 0)
            return -1;
        if (u == v)
            continue;
        int64_t key = u < v ? u * num_vertices + v : v * num_vertices + u;
        uint64_t slot = ((uint64_t)key * 0x9E3779B97F4A7C15ULL) >> hash_shift;
        while (table[slot] >= 0 && table[slot] != key)
            slot = (slot + 1) & (uint64_t)(table_size - 1);
        if (table[slot] == key)
            continue;
        table[slot] = key;
        heads[e] = u;
        tails[e] = v;
        e++;
    }
    return next;
}
