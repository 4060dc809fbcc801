"""Set-up probe: import the named modules and load the native kernel.

Run in a fresh interpreter by :func:`perfbench.common.time_setups`;
prints one JSON line with the import and kernel-load times.
"""

import importlib
import json
import sys
import time


def main(modules: list[str]) -> None:
    t0 = time.perf_counter()
    for name in modules:
        importlib.import_module(name)
    t1 = time.perf_counter()
    from repro import native

    kernel = native.load_kernel()
    t2 = time.perf_counter()
    print(
        json.dumps(
            {
                "import_s": t1 - t0,
                "native_load_s": t2 - t1,
                "backend": kernel.backend if kernel is not None else None,
            }
        )
    )


if __name__ == "__main__":
    main(sys.argv[1:])
