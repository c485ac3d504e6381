"""Transactional package upgrade engine over a sandboxed filesystem root.

The modules follow the life of an upgrade:

- :mod:`txpkg.universe`: repository metadata, versions, installed status
- :mod:`txpkg.resolver`: complete decision of upgrade requests (DPLL)
- :mod:`txpkg.preferences`: lexicographic choice among acceptable outcomes
- :mod:`txpkg.mscript`: maintainer scripts in an undoable DSL
- :mod:`txpkg.txn`: copy-before-write journal, commit/rollback, history
- :mod:`txpkg.confmerge`: pristine tracking and three-way config merge
- :mod:`txpkg.planner`: phased execution with whole-plan atomicity
- :mod:`txpkg.cli`: the ``txpkg`` command
"""

__version__ = "0.1.0"
