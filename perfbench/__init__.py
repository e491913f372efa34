"""Outside-in benchmark of the ``plas`` pipeline.

``run.py`` is the command; ``pipeline`` holds the workloads, their stages and
output checks; ``trace`` holds the span tracer that wraps ``plas``'s public
functions for the traced run. See ``README.md`` for the metrics.
"""
