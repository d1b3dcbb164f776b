"""Experiment harness: one module per table/figure of the paper.

Every module exposes ``run(fast=False) -> ExperimentResult``; the
``repro-experiments`` CLI (:mod:`repro.experiments.runner`) prints the
resulting tables.  ``fast=True`` coarsens sweeps for CI-speed runs; the
default reproduces the paper's full parameter ranges.
"""

from repro.experiments.result import ExperimentResult

__all__ = ["ExperimentResult"]
