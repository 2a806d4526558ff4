#!/usr/bin/env python3
"""Build the walk kernels with AddressSanitizer and UBSan.

Compiles ``_kernels.c`` with ``-fsanitize=address,undefined
-fno-sanitize-recover=all`` to the exact path the kernel loader looks
for (:func:`repro.sampling._native.library_path`), so the next
``_native.load()`` under the same ``REPRO_KERNEL_CACHE`` loads the
sanitized library instead of compiling a plain one.  An out-of-bounds
access or undefined behaviour in any kernel call then aborts the
process with a report.  ctypes can load the library only when the ASan
runtime is preloaded:

    export REPRO_KERNEL_CACHE="$(mktemp -d)"
    python tools/build_sanitized_kernels.py
    export LD_PRELOAD="$(gcc -print-file-name=libasan.so)"
    export ASAN_OPTIONS=detect_leaks=0
    python -c "from repro.sampling import _native; assert _native.available()"
    python -m pytest tests/test_sampling_zero_degree.py -q

Use a cache directory of its own: the sanitized library replaces the
plain one under the same name.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
FLAGS = (
    "-O1",
    "-g",
    "-fno-omit-frame-pointer",
    "-fsanitize=address,undefined",
    "-fno-sanitize-recover=all",
    "-shared",
    "-fPIC",
)


def main() -> int:
    sys.path.insert(0, str(REPO_ROOT / "src"))
    from repro.sampling import _native

    source = Path(_native.__file__).with_name("_kernels.c")
    library = _native.library_path()
    library.parent.mkdir(parents=True, exist_ok=True)
    descriptor, temp_name = tempfile.mkstemp(suffix=".so", dir=library.parent)
    os.close(descriptor)
    try:
        subprocess.run(
            ["gcc", *FLAGS, "-o", temp_name, str(source)], check=True
        )
        os.replace(temp_name, library)
    finally:
        if os.path.exists(temp_name):
            os.unlink(temp_name)
    print(f"sanitized kernels: {library}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
