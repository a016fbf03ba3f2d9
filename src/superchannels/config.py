"""Shared numerical defaults.

Every tolerance decision in the package reads from the single record below,
so a reviewer has one place to audit thresholds.  Most checks are relative:
a quantity is compared against ``tol * max(1, scale)`` where the scale is a
Frobenius norm of the data involved.  An "infeasible" extension verdict
reads none of them: it rests on a Farkas certificate whose margin charges
its own rounding (``feasibility.Certificate``).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Defaults:
    rel_tol: float = 1e-9        # rank / PSD / zero-norm / equality decisions, relative
    herm_tol: float = 1e-10      # Hermiticity validation threshold
    equal_tol: float = 1e-8      # equality judgements on recomputed results, relative
    affine_tol: float = 1e-8     # affine residual accepted for feasibility witnesses
    max_iter: int = 200_000      # extension-search iteration cap


DEFAULTS = Defaults()


def resolve(tol: float | None, default: float) -> float:
    return default if tol is None else float(tol)
