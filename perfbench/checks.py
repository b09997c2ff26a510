"""Output checks that share no code with zenosim.

Everything here is rebuilt from the generated config parameters with
numpy alone: the Hamiltonian, its eigendecomposition (``numpy.linalg.eigh``
called directly) and the closed-form propagation between interventions.
A state is carried as a mixture ``rho = sum_m w_m |psi_m><psi_m|`` with the
columns of ``psi`` as the pure components:

* free evolution maps ``psi -> V exp(-i lam t) V^T psi``;
* a dephasing measurement keeps the diagonal, so the state becomes
  ``diag(p)``: ``psi = I`` with weights ``p``;
* a sign flip negates row and column ``target`` of rho, which is the same
  as negating row ``target`` of ``psi``.

Each check returns a list of problems; an empty list means the output
passed.
"""

from __future__ import annotations

import math

import numpy as np

TOL = 1e-10
EVENT_NAMES = {"measure": "measure", "sign_flip": "flip"}


def band_energies(model: dict) -> np.ndarray:
    """All level energies of a config model, state 0 first."""
    if model["kind"] == "two_level":
        return np.array([model["eps0"], model["eps1"]], dtype=np.float64)
    n = model["n_levels"]
    grid = model["d"] - model["spacing"] * np.arange(n - 1, -1, -1, dtype=np.float64)
    return np.concatenate(([model["eps0"]], grid))


def hamiltonian(model: dict) -> np.ndarray:
    """Level energies on the diagonal, coupling v between state 0 and every other level."""
    e = band_energies(model)
    h = np.diag(e)
    h[0, 1:] = model["v"]
    h[1:, 0] = model["v"]
    return h


def expected_header(dim: int, pairs) -> list:
    cols = ["t"] + [f"rho_{j}{j}" for j in range(dim)] + ["sigma"]
    for j, k in pairs:
        cols += [f"re_{j}{k}", f"im_{j}{k}"]
    return cols + ["trace", "purity", "energy", "event"]


def expected_rows(t_final: float, sample_dt: float, events):
    """(time, event) of every CSV row, in order, for a schedule, and the
    row that stands for each grid time.

    An intervention within 1e-9 relative of a grid time replaces that
    grid row by its post row.
    """
    n = int(math.floor(t_final / sample_dt + 1e-9))
    grid = [i * sample_dt for i in range(n + 1)]
    rows, slots, i = [], [], 0
    for ev in events:
        tau = ev["time"]
        tol = 1e-9 * max(1.0, abs(tau))
        while i <= n and grid[i] < tau - tol:
            slots.append(len(rows))
            rows.append((grid[i], "none"))
            i += 1
        name = EVENT_NAMES[ev["kind"]]
        rows += [(tau, f"pre_{name}"), (tau, f"post_{name}")]
        if i <= n and abs(grid[i] - tau) <= tol:
            slots.append(len(rows) - 1)
            i += 1
    for j in range(i, n + 1):
        slots.append(len(rows))
        rows.append((grid[j], "none"))
    return rows, slots


class Reference:
    """Closed-form trajectory of a config, evaluated at chosen rows.

    The state is kept in the eigenbasis, ``c = V^T psi``, so evaluating it
    at time t is one real product per part: ``psi(t) = V (exp(-i lam (t - t0)) c)``.
    """

    def __init__(self, model: dict):
        self.lam, self.vec = np.linalg.eigh(hamiltonian(model))
        self.w = np.ones(1)
        self._set(np.eye(self.lam.size)[:, :1], 0.0)

    def _set(self, psi: np.ndarray, t0: float) -> None:
        self.c = self.vec.T @ psi.real + 1j * (self.vec.T @ psi.imag)
        self.t0 = t0
        self._last = (None, None)  # (t, psi(t)) of the latest evaluation

    def _components(self, times) -> np.ndarray:
        """psi(t) for every t, shape (T, dim, r)."""
        dt = np.asarray(times, dtype=np.float64) - self.t0
        x = np.exp(-1j * np.outer(dt, self.lam))[:, :, None] * self.c[None]
        return self.vec @ x.real + 1j * (self.vec @ x.imag)

    def observables(self, times, pairs):
        """Populations (T, dim), sigma (T,), pair coherences (T, len(pairs)) and energy (T,)."""
        psi = self._components(times)
        self._last = (times[-1], psi[-1])
        weighted = psi * self.w
        pops = (weighted * psi.conj()).real.sum(axis=2)
        # rho[j, k] = sum_m w_m psi[j, m] conj(psi[k, m])
        row0 = (weighted[:, 0, None, :] @ psi.conj().transpose(0, 2, 1))[:, 0, :]
        coh = np.stack(
            [(weighted[:, j] * psi[:, k].conj()).sum(axis=1) for j, k in pairs], axis=1
        ) if pairs else np.zeros((len(psi), 0), dtype=np.complex128)
        # tr(H rho) is constant between interventions
        energy = float(self.lam @ (np.abs(self.c) ** 2 @ self.w))
        return pops, row0[:, 1:].imag.sum(axis=1), coh, np.full(len(psi), energy)

    def apply(self, event: dict) -> None:
        """Advance to the event time and apply the event."""
        tau = event["time"]
        t, psi = self._last
        psi = (psi if t == tau else self._components([tau])[0]).copy()
        if event["kind"] == "measure":
            self.w = np.abs(psi) ** 2 @ self.w
            self.c, self.t0, self._last = self.vec.T.astype(np.complex128), tau, (None, None)
            return
        psi[event["target"]] *= -1.0
        self._set(psi, tau)


def parse_csv(raw: bytes, header: list, problems: list):
    """Split, parse and round-trip every field; returns (times, values, events).

    ``values`` holds the numeric columns after ``t`` as float64.
    """
    if b"\r" in raw:
        problems.append("CR byte found; lines must end with LF only")
    if not raw.endswith(b"\n"):
        problems.append("file does not end with LF")
    lines = raw.decode("utf-8").split("\n")[:-1]
    if not lines or lines[0].split(",") != header:
        problems.append("header differs from the trajectory schema")
        return None
    ncol = len(header)
    times, values, events = [], [], []
    for r, line in enumerate(lines[1:], start=1):
        fields = line.split(",")
        if len(fields) != ncol:
            problems.append(f"row {r}: {len(fields)} fields, expected {ncol}")
            return None
        nums = [float(f) for f in fields[:-1]]
        bad = [f for f, x in zip(fields[:-1], nums) if f"{x:.17g}" != f]
        if bad:
            problems.append(f"row {r}: field {bad[0]!r} does not round-trip at 17 digits")
        times.append(nums[0])
        values.append(nums[1:])
        events.append(fields[-1])
    return np.array(times), np.array(values, dtype=np.float64).reshape(len(times), ncol - 2), events


def check_trajectory(raw: bytes, config: dict, rng, grid_samples: int | None) -> tuple:
    """Check one trajectory CSV against its config.

    Every row gets the format, trace, purity and energy-conservation
    checks. Populations, sigma, tracked coherences and energy are compared
    with the closed form on every pre/post row and on ``grid_samples``
    grid rows drawn with ``rng`` (all grid rows when None).

    Returns (problems, rho_00 column) so callers can reuse the parsed
    survival curve.
    """
    problems: list = []
    model, run_cfg = config["model"], config["run"]
    events = config["interventions"]
    two_level = model["kind"] == "two_level"
    pairs = [(1, 0)] if two_level else []  # the coherences zenosim tracks by default
    dim = 2 if two_level else model["n_levels"] + 1
    parsed = parse_csv(raw, expected_header(dim, pairs), problems)
    if parsed is None:
        return problems, None
    times, vals, kinds = parsed
    pops, sig = vals[:, :dim], vals[:, dim]
    coh = vals[:, dim + 1 : dim + 1 + 2 * len(pairs)]
    trace, purity, energy = vals[:, -3], vals[:, -2], vals[:, -1]

    rows, _ = expected_rows(run_cfg["t_final"], run_cfg["sample_dt"], events)
    if [(t, e) for t, e in zip(times.tolist(), kinds)] != rows:
        problems.append("row times or event tags differ from the schedule")
        return problems, None

    if np.max(np.abs(trace - 1.0)) > TOL:
        problems.append(f"trace off 1 by {np.max(np.abs(trace - 1.0)):.3e}")
    if np.max(np.abs(pops.sum(axis=1) - trace)) > TOL:
        problems.append("populations do not sum to the trace column")
    if np.max(purity) > 1.0 + TOL or np.min(purity) < 1.0 / dim - TOL:
        problems.append(f"purity outside [1/dim, 1]: {np.min(purity)!r}..{np.max(purity)!r}")
    # energy is conserved between interventions: split at each post row
    starts = [0] + [r for r, e in enumerate(kinds) if e.startswith("post_")]
    ends = [r for r, e in enumerate(kinds) if e.startswith("pre_")] + [len(kinds) - 1]
    for a, b in zip(starts, ends):
        drift = np.ptp(energy[a : b + 1])
        if drift > TOL:
            problems.append(f"energy drifts by {drift:.3e} between rows {a} and {b}")
            break

    grid_rows = [r for r, e in enumerate(kinds) if e == "none"]
    if grid_samples is not None and grid_samples < len(grid_rows):
        grid_rows = sorted(rng.choice(grid_rows, size=grid_samples, replace=False).tolist())
    chosen = sorted(set(grid_rows) | {r for r, e in enumerate(kinds) if e != "none"})

    ref = Reference(model)
    seg_of = np.searchsorted(starts, chosen, side="right") - 1
    ev_iter = iter(events)
    seg = 0
    for s in sorted(set(seg_of.tolist())):
        while seg < s:
            ref.apply(next(ev_iter))
            seg += 1
        rows_s = [r for r, g in zip(chosen, seg_of) if g == s]
        p, sg, c, en = ref.observables(times[rows_s], pairs)
        err = max(
            np.max(np.abs(p - pops[rows_s])),
            np.max(np.abs(sg - sig[rows_s])),
            np.max(np.abs(c.real - coh[rows_s, 0::2]), initial=0.0),
            np.max(np.abs(c.imag - coh[rows_s, 1::2]), initial=0.0),
        )
        if err > TOL:
            problems.append(f"segment {s}: observables differ from the closed form by {err:.3e}")
        if np.max(np.abs(en - energy[rows_s])) > TOL * max(1.0, float(np.max(np.abs(en)))):
            problems.append(f"segment {s}: energy differs from tr(H rho)")
    return problems, pops[:, 0]


def dip_predictor(energies: np.ndarray, v: float, populations: np.ndarray):
    """Cubic small-time dip of the summed Im coherences, from populations."""
    d_rho = populations[1:] - populations[0]
    d_eps = energies[1:] - energies[0]
    a = float(np.sum(d_rho))
    b = float(np.sum(d_rho * d_eps**2))
    return math.sqrt(2.0 * abs(a) / abs(b)), -(v / 3.0) * abs(2.0 * a) ** 1.5 / abs(b) ** 0.5


def _close(x: float, y: float) -> bool:
    return abs(x - y) <= 1e-9 * max(1.0, abs(y))


def check_predict(stdout: str, raw_csv: bytes, config: dict) -> list:
    """Check `zenosim predict --trajectory` output against the CSV it read."""
    problems: list = []
    model = config["model"]
    energies = band_energies(model)
    lines = stdout.split("\n")
    if lines[-1] != "":
        problems.append("predict output does not end with a newline")
    lines = lines[:-1]
    csv_rows = raw_csv.decode("utf-8").split("\n")[1:-1]
    if len(lines) != 3 + len(csv_rows):
        return [f"predict printed {len(lines)} lines for {len(csv_rows)} trajectory rows"]
    init = np.zeros(energies.size)
    init[0] = 1.0
    t_min, s_min = dip_predictor(energies, model["v"], init)
    head = [ln.split(" ") for ln in lines[:2]]
    if [h[0] for h in head] != ["t_min", "sigma_min"] or not (
        _close(float(head[0][1]), t_min) and _close(float(head[1][1]), s_min)
    ):
        problems.append(f"initial-state prediction {lines[:2]} differs from ({t_min}, {s_min})")
    if lines[2] != "t,t_min,sigma_min":
        problems.append(f"unexpected table header {lines[2]!r}")
    for ln, row in zip(lines[3:], csv_rows):
        fields = row.split(",")
        out = ln.split(",")
        pops = np.array(fields[1 : energies.size + 1], dtype=np.float64)
        tm, sm = dip_predictor(energies, model["v"], pops)
        if out[0] != fields[0] or not (_close(float(out[1]), tm) and _close(float(out[2]), sm)):
            problems.append(f"prediction at t={fields[0]} is {out[1:]}, expected ({tm}, {sm})")
            break
    return problems


def free_survival(model: dict, times) -> np.ndarray:
    """rho_00(t) of the free run from |0><0|."""
    return Reference(model).observables(times, [])[0][:, 0]


def check_classification(config, rho00, result, window, theta) -> list:
    """Check a classify_effect verdict against the free run computed here.

    ``rho00`` is the intervened survival column parsed from the CSV
    (already compared with the closed form); ``result`` is (effect, score).
    """
    run_cfg = config["run"]
    n = int(math.floor(run_cfg["t_final"] / run_cfg["sample_dt"] + 1e-9))
    grid = np.arange(n + 1) * run_cfg["sample_dt"]
    _, slots = expected_rows(run_cfg["t_final"], run_cfg["sample_dt"], config["interventions"])
    on_grid = rho00[slots]
    mask = (grid >= window[0] - 1e-9 * max(1.0, window[0])) & (
        grid <= window[1] + 1e-9 * max(1.0, window[1])
    )
    score = float(np.mean(on_grid[mask]) - np.mean(free_survival(config["model"], grid)[mask]))
    effect, got = result
    if abs(got - score) > TOL:
        return [f"classification score {got!r} differs from {score!r}"]
    expected = "QZE" if score > theta else "AZE" if score < -theta else "neutral"
    if abs(abs(score) - theta) > 1e-9 and effect != expected:
        return [f"classified {effect}, expected {expected} for score {score!r}"]
    return []
