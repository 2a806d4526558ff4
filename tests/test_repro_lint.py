"""repro-lint: every rule fires on a minimal fixture and stays quiet
on the clean twin, suppressions silence with a mandatory reason, and
the whole repo lints clean (the CI contract).

The fixtures are written to ``tmp_path`` trees and linted through the
public :func:`tools.repro_lint.run` engine — the same code path the
CLI drives — so these tests pin the diagnostics' rule ids, positions
and file scoping, not just "something was printed".
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from tools.repro_lint import run  # noqa: E402
from tools.repro_lint.diagnostics import (  # noqa: E402
    TOOL_RULE,
    parse_suppressions,
)

CPROTO = REPO_ROOT / "src" / "repro" / "sampling" / "_cproto.py"


def lint_file(tmp_path: Path, code: str, name: str = "mod.py"):
    """Write one module and return its diagnostics."""
    target = tmp_path / name
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(textwrap.dedent(code), encoding="utf-8")
    return run([target])


def rules_of(diagnostics):
    return [d.rule for d in diagnostics]


# ---------------------------------------------------------------------
# RPL001 — unseeded global RNG
# ---------------------------------------------------------------------
class TestRPL001:
    def test_flags_unseeded_global_rng(self, tmp_path):
        diagnostics = lint_file(
            tmp_path,
            """
            import random
            import numpy as np

            a = np.random.default_rng()
            b = np.random.random(5)
            c = random.random()
            d = random.Random()
            """,
        )
        assert rules_of(diagnostics) == ["RPL001"] * 4
        assert [d.line for d in diagnostics] == [5, 6, 7, 8]

    def test_seeded_instances_are_clean(self, tmp_path):
        diagnostics = lint_file(
            tmp_path,
            """
            import random
            import numpy as np

            a = np.random.default_rng(42)
            b = np.random.default_rng(np.random.SeedSequence(7))
            c = random.Random(12345)

            def draw(rng: np.random.Generator, r: random.Random):
                return rng.random(), r.random()
            """,
        )
        assert diagnostics == []

    def test_tracks_import_aliases(self, tmp_path):
        diagnostics = lint_file(
            tmp_path,
            """
            import numpy.random as npr

            x = npr.randint(0, 10)
            """,
        )
        assert rules_of(diagnostics) == ["RPL001"]
        assert "numpy.random.randint" in diagnostics[0].message

    def test_local_variable_named_random_is_not_the_module(self, tmp_path):
        diagnostics = lint_file(
            tmp_path,
            """
            def draw(random):
                return random.random()
            """,
        )
        assert diagnostics == []


# ---------------------------------------------------------------------
# RPL002 — picklable pool tasks
# ---------------------------------------------------------------------
class TestRPL002:
    def test_flags_lambda_closure_and_local_def(self, tmp_path):
        diagnostics = lint_file(
            tmp_path,
            """
            bound = lambda t: t

            def fan_out(pool, tasks, run_anytime):
                def local(t):
                    return t
                pool.map(local, tasks)
                pool.imap(lambda t: t, tasks)
                pool.map(bound, tasks)
                run_anytime(starter=lambda s, g, r, i: None)
            """,
        )
        assert rules_of(diagnostics) == ["RPL002"] * 4
        assert "'local'" in diagnostics[0].message
        assert "starter=" in diagnostics[3].message

    def test_module_level_tasks_and_partial_are_clean(self, tmp_path):
        diagnostics = lint_file(
            tmp_path,
            """
            from functools import partial

            def task(csr, native, t):
                return t

            def fan_out(pool, tasks):
                pool.map(partial(task, None, None), tasks)
                pool.map(task, tasks)
            """,
        )
        assert diagnostics == []


# ---------------------------------------------------------------------
# RPL003 — thread-core reentrancy registry
# ---------------------------------------------------------------------
class TestRPL003:
    def test_flags_global_write_and_non_reentrant_call(self, tmp_path):
        diagnostics = lint_file(
            tmp_path,
            """
            from repro.util.reentrancy import non_reentrant, thread_core

            @non_reentrant("swaps the process default")
            def set_backend(name):
                global _backend
                _backend = name

            @thread_core
            def core(task):
                global _STATE
                set_backend("csr")
                return task
            """,
        )
        assert rules_of(diagnostics) == ["RPL003", "RPL003"]
        assert "global _STATE" in diagnostics[0].message
        assert "set_backend()" in diagnostics[1].message
        assert "@non_reentrant" in diagnostics[1].message

    def test_registry_spans_files(self, tmp_path):
        (tmp_path / "helpers.py").write_text(
            textwrap.dedent(
                """
                from repro.util.reentrancy import non_reentrant

                @non_reentrant("writes the worker globals")
                def init_worker(stem):
                    global _CSR
                    _CSR = stem
                """
            ),
            encoding="utf-8",
        )
        (tmp_path / "tasks.py").write_text(
            textwrap.dedent(
                """
                from repro.util.reentrancy import thread_core
                from helpers import init_worker

                @thread_core
                def core(task):
                    init_worker("x")
                    return task
                """
            ),
            encoding="utf-8",
        )
        diagnostics = run([tmp_path])
        assert rules_of(diagnostics) == ["RPL003"]
        assert "helpers.py:5" in diagnostics[0].message

    def test_clean_thread_core_passes(self, tmp_path):
        diagnostics = lint_file(
            tmp_path,
            """
            from repro.util.reentrancy import thread_core

            @thread_core
            def core(csr, native, task):
                return (csr, native, task)
            """,
        )
        assert diagnostics == []


# ---------------------------------------------------------------------
# RPL004 — cross-language signature drift
# ---------------------------------------------------------------------
KERNELS_C = """
#include <stdint.h>

void repro_demo_steps(const int64_t *indptr, int64_t n, double *out) {
    (void)indptr; (void)n; (void)out;
}
"""


def native_tree(tmp_path: Path, native_source: str) -> Path:
    """A fixture `sampling/` dir with _kernels.c, _cproto.py, _native.py."""
    package = tmp_path / "sampling"
    package.mkdir(parents=True, exist_ok=True)
    (package / "_kernels.c").write_text(KERNELS_C, encoding="utf-8")
    shutil.copy(CPROTO, package / "_cproto.py")
    (package / "_native.py").write_text(
        textwrap.dedent(native_source), encoding="utf-8"
    )
    return package


class TestRPL004:
    def test_matching_declarations_are_clean(self, tmp_path):
        package = native_tree(
            tmp_path,
            """
            _DECLARATIONS = {
                "repro_demo_steps": ("void", ("i64*", "i64", "f64*")),
            }
            """,
        )
        diagnostics = run([package])
        assert [d for d in diagnostics if d.rule == "RPL004"] == []

    def test_catches_injected_arity_mismatch(self, tmp_path):
        package = native_tree(
            tmp_path,
            """
            _DECLARATIONS = {
                "repro_demo_steps": ("void", ("i64*", "i64")),
            }
            """,
        )
        diagnostics = run([package])
        assert rules_of(diagnostics) == ["RPL004"]
        message = diagnostics[0].message
        assert "arity mismatch" in message
        # ...naming both signatures:
        assert "void repro_demo_steps(i64*, i64)" in message
        assert "void repro_demo_steps(i64*, i64, f64*)" in message

    def test_catches_injected_argtype_mismatch_classic_style(self, tmp_path):
        package = native_tree(
            tmp_path,
            """
            import ctypes

            _I64P = ctypes.POINTER(ctypes.c_int64)

            def declare(lib):
                lib.repro_demo_steps.restype = None
                lib.repro_demo_steps.argtypes = [
                    _I64P, ctypes.c_double,
                    ctypes.POINTER(ctypes.c_double),
                ]
            """,
        )
        diagnostics = run([package])
        assert rules_of(diagnostics) == ["RPL004"]
        assert "type mismatch" in diagnostics[0].message
        assert "void repro_demo_steps(i64*, f64, f64*)" in diagnostics[0].message

    def test_flags_undeclared_and_phantom_kernels(self, tmp_path):
        package = native_tree(
            tmp_path,
            """
            _DECLARATIONS = {
                "repro_phantom": ("void", ("i64",)),
            }
            """,
        )
        diagnostics = run([package])
        assert rules_of(diagnostics) == ["RPL004", "RPL004"]
        messages = " | ".join(d.message for d in diagnostics)
        assert "no such kernel prototype" in messages
        assert "never declares it" in messages

    def test_real_tree_is_in_agreement(self):
        sampling = REPO_ROOT / "src" / "repro" / "sampling"
        diagnostics = run([sampling / "_native.py"])
        assert [d for d in diagnostics if d.rule == "RPL004"] == []


# ---------------------------------------------------------------------
# RPL005 — wall-clock / entropy / set-order, scoped packages only
# ---------------------------------------------------------------------
NONDETERMINISTIC = """
import os
import time
from datetime import datetime

def stamp(values):
    t = time.time()
    n = datetime.now()
    e = os.urandom(8)
    for v in {1, 2, 3}:
        pass
    order = [x for x in set(values)]
    return t, n, e, order
"""


class TestRPL005:
    def test_flags_inside_sampling_package(self, tmp_path):
        diagnostics = lint_file(
            tmp_path, NONDETERMINISTIC, name="repro/sampling/mod.py"
        )
        assert rules_of(diagnostics) == ["RPL005"] * 5
        messages = " | ".join(d.message for d in diagnostics)
        assert "wall-clock" in messages
        assert "OS entropy" in messages
        assert "order is salted" in messages

    def test_flags_inside_estimators_package(self, tmp_path):
        diagnostics = lint_file(
            tmp_path, NONDETERMINISTIC, name="repro/estimators/mod.py"
        )
        assert rules_of(diagnostics) == ["RPL005"] * 5

    def test_out_of_scope_files_are_exempt(self, tmp_path):
        diagnostics = lint_file(
            tmp_path, NONDETERMINISTIC, name="benchmarks/mod.py"
        )
        assert diagnostics == []

    def test_sorted_iteration_is_clean(self, tmp_path):
        diagnostics = lint_file(
            tmp_path,
            """
            def visit(vertices):
                return [v for v in sorted(set(vertices))]
            """,
            name="repro/sampling/mod.py",
        )
        assert diagnostics == []


# ---------------------------------------------------------------------
# suppression comments
# ---------------------------------------------------------------------
class TestSuppressions:
    def test_inline_disable_with_reason_silences(self, tmp_path):
        diagnostics = lint_file(
            tmp_path,
            """
            import random

            x = random.random()  # repro-lint: disable=RPL001 -- demo site
            """,
        )
        assert diagnostics == []

    def test_comment_above_governs_next_code_line(self, tmp_path):
        diagnostics = lint_file(
            tmp_path,
            """
            import random

            # repro-lint: disable=RPL001 -- reason spans this line
            # and continues on a plain comment line below it.
            x = random.random()
            """,
        )
        assert diagnostics == []

    def test_disable_only_silences_named_rules(self, tmp_path):
        diagnostics = lint_file(
            tmp_path,
            """
            import os

            def stamp():
                return os.urandom(8)  # repro-lint: disable=RPL001 -- wrong id
            """,
            name="repro/sampling/mod.py",
        )
        assert rules_of(diagnostics) == ["RPL005"]

    def test_multiple_rules_one_comment(self, tmp_path):
        diagnostics = lint_file(
            tmp_path,
            """
            import os
            import random

            def stamp():
                # repro-lint: disable=RPL001,RPL005 -- both intentional
                return random.random(), os.urandom(8)
            """,
            name="repro/sampling/mod.py",
        )
        assert diagnostics == []

    def test_missing_reason_is_malformed_and_does_not_silence(self, tmp_path):
        diagnostics = lint_file(
            tmp_path,
            """
            import random

            x = random.random()  # repro-lint: disable=RPL001
            """,
        )
        assert sorted(rules_of(diagnostics)) == [TOOL_RULE, "RPL001"]
        malformed = [d for d in diagnostics if d.rule == TOOL_RULE][0]
        assert "requires a reason" in malformed.message

    def test_bad_rule_id_is_malformed(self, tmp_path):
        diagnostics = lint_file(
            tmp_path,
            """
            x = 1  # repro-lint: disable=BOGUS -- whatever
            """,
        )
        assert rules_of(diagnostics) == [TOOL_RULE]

    def test_disable_inside_string_literal_is_ignored(self):
        suppressions = parse_suppressions(
            "mod.py",
            'text = "# repro-lint: disable=RPL001"\n',
        )
        assert suppressions.by_line == {}
        assert suppressions.malformed == []


# ---------------------------------------------------------------------
# engine + CLI
# ---------------------------------------------------------------------
class TestEngine:
    def test_syntax_error_is_a_tool_diagnostic(self, tmp_path):
        diagnostics = lint_file(tmp_path, "def broken(:\n")
        assert rules_of(diagnostics) == [TOOL_RULE]
        assert "syntax error" in diagnostics[0].message

    def test_whole_repo_lints_clean(self):
        paths = [
            REPO_ROOT / name
            for name in ("src", "tests", "benchmarks", "examples")
            if (REPO_ROOT / name).exists()
        ]
        diagnostics = run(paths, root=REPO_ROOT)
        assert diagnostics == [], "\n".join(
            d.render() for d in diagnostics
        )


class TestCli:
    def run_cli(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "tools.repro_lint", *args],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
        )

    def test_list_rules(self):
        result = self.run_cli("--list-rules")
        assert result.returncode == 0
        for rule_id in ("RPL001", "RPL002", "RPL003", "RPL004", "RPL005"):
            assert rule_id in result.stdout

    def test_missing_path_exits_2(self):
        result = self.run_cli("no/such/dir")
        assert result.returncode == 2
        assert "no such path" in result.stderr

    def test_violations_exit_1_with_locations(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("import random\nx = random.random()\n")
        result = self.run_cli(str(bad))
        assert result.returncode == 1
        assert "bad.py:2:4: RPL001" in result.stdout


# ---------------------------------------------------------------------
# the audit sites actually adopted the registry
# ---------------------------------------------------------------------
class TestRegistryAdoption:
    def test_sharded_task_cores_are_marked(self):
        from repro.sampling import sharded
        from repro.util.reentrancy import is_thread_core

        assert is_thread_core(sharded._shard_advance_task)
        assert is_thread_core(sharded._anytime_task)

    def test_global_mutators_are_marked_non_reentrant(self):
        from repro.sampling import sharded
        from repro.util.reentrancy import non_reentrant_reason

        assert "worker globals" in non_reentrant_reason(sharded._worker_init)

    def test_non_reentrant_requires_a_reason(self):
        from repro.util.reentrancy import non_reentrant

        with pytest.raises(ValueError, match="reason"):
            non_reentrant("")
        with pytest.raises(ValueError, match="reason"):
            non_reentrant(None)  # type: ignore[arg-type]


# ---------------------------------------------------------------------
# the runtime mirror: KernelSignatureError at load time
# ---------------------------------------------------------------------
class TestRuntimeSignatureCheck:
    def test_real_declarations_verify_against_real_source(self):
        from repro.sampling import _native

        source = (
            REPO_ROOT / "src" / "repro" / "sampling" / "_kernels.c"
        ).read_text(encoding="utf-8")
        _native._check_declarations(_native._DECLARATIONS, source)

    def test_tampered_arity_raises_readable_error(self):
        from repro.sampling import _native

        source = (
            REPO_ROOT / "src" / "repro" / "sampling" / "_kernels.c"
        ).read_text(encoding="utf-8")
        tampered = dict(_native._DECLARATIONS)
        tampered["repro_rw_steps_acc"] = ("void", ("i64*", "i64*"))
        with pytest.raises(_native.KernelSignatureError) as excinfo:
            _native._check_declarations(tampered, source)
        message = str(excinfo.value)
        assert "repro_rw_steps_acc" in message
        assert "void repro_rw_steps_acc(i64*, i64*)" in message  # declared
        assert "f64*" in message  # the C side's uniforms argument

    def test_tampered_type_raises_readable_error(self):
        from repro.sampling import _native

        source = (
            REPO_ROOT / "src" / "repro" / "sampling" / "_kernels.c"
        ).read_text(encoding="utf-8")
        tampered = dict(_native._DECLARATIONS)
        restype, argtypes = tampered["repro_mh_steps_acc"]
        drifted = ("f64",) + argtypes[1:]
        tampered["repro_mh_steps_acc"] = (restype, drifted)
        with pytest.raises(
            _native.KernelSignatureError, match="type mismatch"
        ):
            _native._check_declarations(tampered, source)

    def test_unknown_kernel_raises(self):
        from repro.sampling import _native

        source = (
            REPO_ROOT / "src" / "repro" / "sampling" / "_kernels.c"
        ).read_text(encoding="utf-8")
        with pytest.raises(
            _native.KernelSignatureError, match="no such prototype"
        ):
            _native._check_declarations(
                {"repro_missing": ("void", ())}, source
            )

    def test_cproto_parses_all_kernels(self):
        from repro.sampling import _cproto

        source = (
            REPO_ROOT / "src" / "repro" / "sampling" / "_kernels.c"
        ).read_text(encoding="utf-8")
        prototypes = _cproto.parse_prototypes(source)
        assert set(prototypes) == {
            "repro_rw_steps_acc", "repro_fs_steps_acc",
            "repro_mh_steps_acc", "repro_ba_attach", "repro_gnm_edges",
        }
        assert prototypes["repro_rw_steps_acc"].restype == "i64"
        assert prototypes["repro_fs_steps_acc"].argtypes[0] == "i64*"
        # The FS kernel ends with the Fenwick scratch and the NULL-able
        # step-record outputs (out_u, out_v, out_idx).
        assert prototypes["repro_fs_steps_acc"].argtypes[-4:] == (
            ("i64*",) * 4
        )
