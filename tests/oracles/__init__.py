"""Closed-form references for the tests, computed without the pipeline's solvers."""
