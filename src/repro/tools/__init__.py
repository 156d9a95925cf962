"""Developer tooling for the reproduction: static analysis and gates.

:mod:`repro.tools.detlint` is the determinism linter behind
``python -m repro lint`` (see DESIGN.md section 13).  Nothing in this
package is imported by the simulation itself
(``tests/test_import_hygiene.py`` checks it) -- tools may use any
stdlib facility (including ones the linter bans from protocol code).
"""
