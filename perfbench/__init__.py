"""The repository benchmark: seeded workloads measured end to end and per layer.

Run it with ``python3 perfbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>`` from the repository root; ``perfbench/README.md``
describes the workloads, the metrics and how each answer is checked.
"""
