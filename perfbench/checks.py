"""Correctness checks the benchmark runs on the program's outputs.

Each ``*_failures`` function compares one output with an independent
reference and returns failure messages; an empty list means it passed. The
tolerances are the repository's oracle tolerances.
"""

from __future__ import annotations

import numpy as np

import oracles
from quanvnet import circuits
from quanvnet import model as qm
from quanvnet import statevector as sv

AMPLITUDE_TOL = 1e-10  # amplitudes against the closed-form encoding oracle
GRADIENT_TOL = 1e-5  # relative, quantum gradients against central differences
PROB_SUM_TOL = 1e-9  # |sum of a probability row - 1|
NORM_TOL = 1e-10  # | ||psi||^2 - 1 |
REFERENCE_TOL = 1e-4  # final loss terms against the stored reference


def _within(value, tol) -> bool:
    return bool(value <= tol)  # False for NaN


def invariant_failures(loss=None, probs=None, psi=None) -> list:
    """Per-operation invariants: finite loss, normalised probability rows,
    unit-norm states."""
    out = []
    if loss is not None and not np.isfinite(loss):
        out.append(f"loss {loss} is not finite")
    if probs is not None:
        drift = float(np.max(np.abs(np.sum(probs, axis=1) - 1.0)))
        if not _within(drift, PROB_SUM_TOL):
            out.append(f"probability rows sum to 1 only within {drift:.3g}")
    if psi is not None:
        drift = float(np.max(np.abs(np.linalg.norm(psi, axis=1) ** 2 - 1.0)))
        if not _within(drift, NORM_TOL):
            out.append(f"state norm drifts by {drift:.3g}")
    return out


def closeness_failures(what: str, got, want, tol: float) -> list:
    got, want = np.asarray(got), np.asarray(want)
    if got.shape != want.shape:
        return [f"{what}: shape {got.shape} differs from {want.shape}"]
    err = float(np.max(np.abs(got - want))) if got.size else 0.0
    return [] if _within(err, tol) else [f"{what}: max |difference| {err:.3g} > {tol:g}"]


def encoding_length(evaluator) -> int:
    """Number of leading entries of ``evaluator.compiled`` that encode the data."""
    return len(circuits.build_encoding(evaluator.config, evaluator.layout).instructions)


def zero_states(rows: int, num_qubits: int) -> np.ndarray:
    amps = np.zeros((rows, 1 << num_qubits), dtype=np.complex128)
    amps[:, 0] = 1.0
    return amps


def encoding_states(evaluator, data: np.ndarray) -> tuple:
    """(states after the evaluator's encoding fragment, oracle states) for
    data rows of shape (rows, data_arity)."""
    cfg, layout = evaluator.config, evaluator.layout
    got = zero_states(data.shape[0], layout.total_qubits)
    sv.run_compiled(evaluator.compiled[: encoding_length(evaluator)], got, data, None)
    size = cfg.grid_size
    want = np.stack([
        oracles.encoding_state_oracle(
            cfg.grid_log, cfg.features_per_superpixel, layout.q_l, layout.q_v,
            layout.total_qubits, row.reshape(size, size, cfg.features_per_superpixel),
        )
        for row in data
    ])
    return got, want


def quantum_gradients(model, store, images, labels, slots) -> tuple:
    """(adjoint gradient, central differences) of one batch's loss with
    respect to the quantum parameters ``slots``."""
    grads = model.loss_and_grads(images, labels, store)[3]["quantum"]

    def loss(values):
        trial = store.copy()
        trial.segments["quantum"][slots] = values
        # the reconstruction term does not depend on the quantum parameters
        return qm.cross_entropy(model.forward_batch(images, trial)["probs"], labels)

    numeric = oracles.central_differences(loss, store.segments["quantum"][slots])
    return grads[slots], numeric


def gradient_failures(analytic, numeric) -> list:
    err = oracles.relative_error(analytic, numeric)
    if _within(err, GRADIENT_TOL):
        return []
    return [f"quantum gradient: relative error {err:.3g} > {GRADIENT_TOL:g}"]


def reference_failures(terms: dict, reference: dict) -> list:
    out = []
    for name, want in reference.items():
        got = terms.get(name)
        if got is None or not _within(abs(got - want), REFERENCE_TOL):
            out.append(f"final {name} {got!r} differs from reference {want!r} by more than {REFERENCE_TOL:g}")
    return out


def accuracy_failures(probs, labels, accuracy: float) -> list:
    """The accuracy ``evaluate`` returned against the argmax of the batch
    outputs it produced."""
    want = float((np.argmax(probs, axis=1) == labels).mean())
    return [] if accuracy == want else [f"evaluate's accuracy {accuracy!r} disagrees with its batch outputs ({want!r})"]


def repeat_failures(metrics_csv: str, first_csv: str) -> list:
    """Repeated seeded training must write the same metrics file."""
    return [] if metrics_csv == first_csv else ["repeated seeded training wrote different metrics"]


def final_loss_terms(metrics_csv: str) -> dict:
    """Loss terms of the last epoch row of a ``run<r>_metrics.csv``."""
    lines = metrics_csv.strip().splitlines()
    header, last = lines[0].split(","), lines[-1].split(",")
    row = dict(zip(header, last))
    return {k: float(row[k]) for k in ("l_ce", "l_mse", "loss", "val_loss")}
