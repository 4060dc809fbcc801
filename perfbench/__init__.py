"""End-to-end and per-layer benchmark of the repro scheduling system.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the root of a source checkout; see ``README.md``.
"""
