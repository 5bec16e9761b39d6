"""Socket-level HotCRP benchmark: three workloads, one runner.

``python3 hotcrpbench/run.py --workload paper-page --seed 1 --seconds 15``
serves the HotCRP site from a real ``HTTPServer`` in a child process and
drives it from this process; see ``hotcrpbench/README.md``.
"""
