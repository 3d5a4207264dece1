"""Repository benchmark: workloads, span tracing and the run command
(``python3 perfbench/run.py``). See ``perfbench/README.md``."""
