"""Finite-fragment workbench for decomposing grid functions into a
hereditarily thrifty core plus width-harmless relabelings, and synthesizing
the core as a certified term over one witness function and named atoms."""
