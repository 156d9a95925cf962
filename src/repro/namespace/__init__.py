"""Hierarchical namespace substrate for TerraDir.

A TerraDir namespace is a rooted tree of fully-qualified hierarchical
names (``/university/public/people/...``).  Internally nodes are dense
integer identifiers (the root is always ``0``) so that the hot routing
path never touches strings; :class:`~repro.namespace.tree.Namespace`
maps between the two representations.
"""
