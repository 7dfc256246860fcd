"""The repo benchmark: six workloads, measured end to end and per layer.

See ``README.md`` in this directory; ``run.py`` is the one command.
"""
