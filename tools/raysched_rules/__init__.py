"""Rule families of tools/raysched_check, one module per ID prefix.

Each module exports RULES ({rule id: one-line summary}) and
check(tree, emit), which reads the driver's per-file records and reports
each violation through emit(). docs/STATIC_ANALYSIS.md documents every
rule.
"""
