"""Shared fixtures: the worked 4x4 system and random-object builders."""

import numpy as np
import pytest

from openext import ConservativeSystem, PointMeasure
from openext.numerics import DEFAULT_TOLERANCES


# one (number, label, passed, detail) entry per acceptance criterion,
# echoed after the run so the verdict survives pytest's output capture
CRITERION_RESULTS = []


def pytest_terminal_summary(terminalreporter):
    if not CRITERION_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number, label, passed, detail in sorted(CRITERION_RESULTS):
        status = "PASS" if passed else "FAIL"
        terminalreporter.write_line(
            f"criterion {number:2d} [{status}] {label}: {detail}"
        )


@pytest.fixture
def tol():
    return DEFAULT_TOLERANCES


@pytest.fixture
def worked_system():
    """Two observable modes at 0 and 3, two hidden modes at 1 and 2.

    Only the first observable mode couples, and it couples to both
    hidden modes with equal weight.  This system exercises every
    decomposition edge case: a frozen observable mode, a fully coupled
    hidden side, coupling rank one, and a single coupling string.
    """
    omega = np.zeros((4, 4), dtype=complex)
    omega[1, 1] = 3.0
    omega[2, 2] = 1.0
    omega[3, 3] = 2.0
    omega[0, 2] = omega[0, 3] = 1.0
    omega[2, 0] = omega[3, 0] = 1.0
    return ConservativeSystem(2, 2, omega)


def haar_unitary(n, rng):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def random_psd(rng, dim, rank=None):
    if rank is None:
        rank = int(rng.integers(1, dim + 1))
    c = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    return c @ c.conj().T


def random_measure(rng, dim, n_atoms, freq_lo=-3.0, freq_hi=3.0):
    freqs = np.sort(rng.uniform(freq_lo, freq_hi, n_atoms))
    # enforce clear separation so atom counts are unambiguous
    freqs = freqs + np.arange(n_atoms) * 0.05
    return PointMeasure(dim, freqs, [random_psd(rng, dim) for _ in freqs])


def random_conservative(rng, n1, n2, norm_cap=None):
    h = rng.standard_normal((n1 + n2, n1 + n2)) + 1j * rng.standard_normal((n1 + n2, n1 + n2))
    omega = 0.5 * (h + h.conj().T)
    if norm_cap is not None:
        s = np.linalg.norm(omega, 2)
        if s > norm_cap:
            omega = omega * (norm_cap / s)
    return ConservativeSystem(n1, n2, omega)


def joint_frame(system, h1, h2):
    """Full-space frame diag(F1, F2) of a subspace h1 of H1 and a subspace h2 of H2."""
    frame = np.zeros((system.dim, h1.dim + h2.dim), dtype=complex)
    frame[: system.n1, : h1.dim] = h1.frame
    frame[system.n1 :, h1.dim :] = h2.frame
    return frame


def krylov_span(op, seeds, tol=1e-9):
    """Reference orbit: orthonormal basis of span{op^k s} by repeated QR.

    Deliberately different from the eigenprojection construction in the
    package so the two can check each other.
    """
    op = np.asarray(op, dtype=complex)
    n = op.shape[0]
    cols = np.asarray(seeds, dtype=complex)
    if cols.ndim == 1:
        cols = cols[:, None]
    block = cols
    mats = [cols]
    for _ in range(n):
        block = op @ block
        mats.append(block)
    stacked = np.hstack(mats)
    q, r = np.linalg.qr(stacked)
    keep = np.abs(np.diag(r)) > tol * max(1.0, np.abs(r[0, 0]) if r.size else 1.0)
    return q[:, keep[: q.shape[1]]]
