"""Least-squares ARX identification and fit scoring for sampled rig data.

The workflow mirrors how the reference rig was modeled: log duty/speed
pairs at a fixed rate, normalize both channels to [0, 1], fit a low-order
ARX model y(k) + a1 y(k-1) + ... = b1 u(k-nk) + ..., score it on held-out
data, and reconstruct a continuous first-order model from the 1/1/1 fit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lti import ContinuousTf, DiscreteTf, filter_sequence

__all__ = [
    "SampleSeries",
    "ArxModel",
    "read_sample_csv",
    "normalize",
    "fit_arx",
    "percent_fit",
    "arx_to_first_order_ct",
]


@dataclass(frozen=True)
class SampleSeries:
    """Equally spaced input/output record. Arrays are treated as immutable."""

    sample_time: float
    inputs: np.ndarray
    outputs: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.inputs, dtype=np.float64)
        y = np.asarray(self.outputs, dtype=np.float64)
        if u.ndim != 1 or y.ndim != 1 or u.size != y.size:
            raise ValueError("inputs and outputs must be 1-D arrays of equal length")
        if u.size < 4:
            raise ValueError("need at least 4 samples")
        if not (self.sample_time > 0.0 and math.isfinite(self.sample_time)):
            raise ValueError("sample_time must be positive")
        for name, x in (("inputs", u), ("outputs", y)):
            bad = np.flatnonzero(~np.isfinite(x))
            if bad.size:
                raise ValueError(f"{name}[{bad[0]}] is not finite")
        object.__setattr__(self, "inputs", u)
        object.__setattr__(self, "outputs", y)

    def __len__(self):
        return self.inputs.size


@dataclass(frozen=True)
class ArxModel:
    """ARX(na, nb, nk) parameter set plus the fit's residual sum of squares."""

    a_coeffs: tuple
    b_coeffs: tuple
    delay_nk: int
    sample_time: float
    residual_ss: float = 0.0

    def __post_init__(self):
        if len(self.b_coeffs) < 1:
            raise ValueError("nb must be at least 1")
        if self.delay_nk < 1:
            raise ValueError("nk must be at least 1")
        object.__setattr__(self, "a_coeffs", tuple(float(c) for c in self.a_coeffs))
        object.__setattr__(self, "b_coeffs", tuple(float(c) for c in self.b_coeffs))

    def to_discrete_tf(self):
        num = (0.0,) * self.delay_nk + self.b_coeffs
        den = (1.0,) + self.a_coeffs
        return DiscreteTf(num=num, den=den, sample_time=self.sample_time)

    def simulate(self, inputs):
        """Free-run simulation (model output fed back, not measured output)."""
        return filter_sequence(self.to_discrete_tf(), inputs)


def read_sample_csv(path):
    """Read a `t,u,y` CSV into a SampleSeries, validating the time base."""
    from .delay_est import read_table

    lines = []
    rows = []
    for lineno, row in read_table(path, ("t", "u", "y")):
        try:
            values = tuple(float(c) for c in row)
        except ValueError:
            raise ValueError(f"{path}: line {lineno}: non-numeric field") from None
        if not all(math.isfinite(v) for v in values):
            raise ValueError(f"{path}: line {lineno}: non-finite field")
        lines.append(lineno)
        rows.append(values)
    if len(rows) < 4:
        raise ValueError(f"{path}: need at least 4 data rows")
    t = np.array([r[0] for r in rows])
    dt = t[1] - t[0]
    if dt <= 0:
        raise ValueError(f"{path}: line {lines[1]}: time must be strictly increasing")
    steps = np.diff(t)
    bad = np.nonzero(np.abs(steps - dt) > 1e-9 * max(abs(dt), 1.0))[0]
    if bad.size:
        raise ValueError(
            f"{path}: line {lines[bad[0] + 1]}: uneven time step "
            f"({steps[bad[0]]:.6g} vs {dt:.6g})"
        )
    return SampleSeries(
        sample_time=float(dt),
        inputs=np.array([r[1] for r in rows]),
        outputs=np.array([r[2] for r in rows]),
    )


def normalize(series):
    """Scale each channel to [0, 1] by its own min/max."""

    def scale(x, what):
        lo = float(x.min())
        hi = float(x.max())
        if hi == lo:
            raise ValueError(f"{what} channel is constant: cannot normalize")
        return (x - lo) / (hi - lo)

    return SampleSeries(
        sample_time=series.sample_time,
        inputs=scale(series.inputs, "input"),
        outputs=scale(series.outputs, "output"),
    )


def fit_arx(series, na, nb, nk):
    """Least-squares ARX fit over the usable rows of the series.

    Regressor row at time t: [-y(t-1) ... -y(t-na), u(t-nk) ... u(t-nk-nb+1)].
    Raises on a rank-deficient regressor (no excitation) or a series too
    short to form at least na+nb rows.
    """
    if na < 0 or nb < 1 or nk < 1:
        raise ValueError("need na >= 0, nb >= 1, nk >= 1")
    y = series.outputs
    u = series.inputs
    start = max(na, nb + nk - 1)
    n_rows = len(series) - start
    n_params = na + nb
    if n_rows < n_params:
        raise ValueError(
            f"series too short: {n_rows} usable rows for {n_params} parameters"
        )
    phi = np.empty((n_rows, n_params))
    for j in range(na):
        phi[:, j] = -y[start - 1 - j : len(series) - 1 - j]
    for j in range(nb):
        phi[:, na + j] = u[start - nk - j : len(series) - nk - j]
    target = y[start:]
    theta, _, rank, _ = np.linalg.lstsq(phi, target, rcond=None)
    if rank < n_params:
        raise ValueError("regressor is rank-deficient: input lacks excitation")
    residual = float(np.sum((phi @ theta - target) ** 2))
    return ArxModel(
        a_coeffs=tuple(theta[:na]),
        b_coeffs=tuple(theta[na:]),
        delay_nk=nk,
        sample_time=series.sample_time,
        residual_ss=residual,
    )


def percent_fit(y_model, y_actual):
    """Normalized root-mean-square fit, in percent.

    100 * (1 - ||y - yhat|| / ||y - mean(y)||). 100 is a perfect match; a
    constant actual signal has no deviation to explain and raises.
    """
    y = np.asarray(y_actual, dtype=np.float64)
    yh = np.asarray(y_model, dtype=np.float64)
    if y.shape != yh.shape:
        raise ValueError("model and actual sequences must have equal length")
    denom = float(np.linalg.norm(y - y.mean()))
    if denom == 0.0:
        raise ValueError("actual output is constant: fit percentage undefined")
    return 100.0 * (1.0 - float(np.linalg.norm(y - yh)) / denom)


def arx_to_first_order_ct(model):
    """Reconstruct K/(s + a) from an ARX(1,1,1) fit.

    Inverts the step-invariant map: a = -ln(-a1)/T and K chosen to preserve
    the DC gain b1/(1 + a1).
    """
    if len(model.a_coeffs) != 1 or len(model.b_coeffs) != 1 or model.delay_nk != 1:
        raise ValueError("continuous reconstruction requires an ARX(1,1,1) model")
    p = -model.a_coeffs[0]
    if not 0.0 < p < 1.0:
        raise ValueError(f"discrete pole {p:.6g} is outside (0, 1): no stable first-order equivalent")
    a = -math.log(p) / model.sample_time
    k = a * model.b_coeffs[0] / (1.0 - p)
    return ContinuousTf(num=(k,), den=(a, 1.0))
