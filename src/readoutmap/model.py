"""System parameters, pulse envelopes, the rules for out-of-range inputs, and the
units contract.

Units convention used across the package: every spectral quantity (detunings,
anharmonicity, dispersive shift, decay and drive rates) is stored as a cyclic
frequency in MHz, i.e. the omega/2pi value. Times are in ns. Whenever a phase
or decay exponent is formed, the frequency is multiplied by 2*pi and the time
by 1e-3 (ns -> us), so that 1 MHz * 1 us = one full cycle. The constant
RAD_PER_MHZ_NS below is that conversion factor.

Every CSV the package writes goes through write_csv, which owns the output
format: each value is printed as "%.12g" % (x + 0.0), the same text as the
f"{x + 0.0:.12g}" of earlier versions (12 significant digits, signed zeros
printed as 0), comma-separated with \r\n line ends; the header row goes
through the default csv dialect. The digits come from a numpy kernel
(_format_block) that rounds each value to 12 digits in binary and reads the
text from lookup tables; a value it cannot round with certainty (a near-tie,
0, NaN, an infinity, or a magnitude outside [1e-11, 1e33)) is printed by
"%.12g" % x itself.

Every config value is read through read_section and config_value, which own
the config format: JSON objects with no unknown or missing key, a finite
number for a float key, a number of integral value for an int key.

A pulse decides its shape once: PulseSpec.__post_init__ reads its kind and
keeps the pieces of the envelope (flat stretch, ramps, end, ramp
normalization), which sg_envelope (the envelope and its first two
derivatives) and constant_envelope read; nothing below the pulse branches on
its kind. Inputs too large for a float have one rule each: overflow_error for
the system keys, drive_error for the drive.
"""

from __future__ import annotations

import csv
import functools
import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

# angular rad/ns per cyclic MHz: phase = RAD_PER_MHZ_NS * f_mhz * t_ns
RAD_PER_MHZ_NS = 2.0e-3 * math.pi

# rows formatted per write in write_csv; bounds its memory, not its output
_CSV_BLOCK_ROWS = 1024

# the system keys of a config, in SystemParams field order, as read_section's spec
PARAM_SPEC = {**dict.fromkeys(("delta_ad_mhz", "delta_cd_mhz", "alpha_a_mhz", "chi_ac_mhz",
                               "kappa_c_mhz"), (float, ...)), "n_a": (int, ...), "n_c": (int, ...)}


@dataclass(frozen=True)
class SystemParams:
    """Frequencies (cyclic MHz) and truncations of the driven Kerr readout model.

    delta_ad : qubit-drive detuning
    delta_cd : resonator-drive detuning
    alpha_a  : qubit anharmonicity (enters the Hamiltonian for levels >= 2 only)
    chi_ac   : half the full dispersive shift (may be negative)
    kappa_c  : resonator decay rate (>= 0)
    n_a, n_c : qubit / resonator truncation dimensions (>= 2)
    """

    delta_ad: float
    delta_cd: float
    alpha_a: float
    chi_ac: float
    kappa_c: float
    n_a: int
    n_c: int

    def __post_init__(self):
        for name in ("delta_ad", "delta_cd", "alpha_a", "chi_ac", "kappa_c"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.kappa_c < 0:
            raise ValueError("kappa_c must be >= 0")
        if self.n_a < 2 or self.n_c < 2:
            raise ValueError("truncations n_a and n_c must both be >= 2")


@dataclass(frozen=True)
class PulseSpec:
    """Drive pulse: peak amplitude omega_c (MHz) and envelope shape.

    kind 'constant' is an always-on unit envelope (a step drive when the
    response is integrated from eta(0)=0). kind 'square-gaussian' is a flat-top
    pulse with Gaussian ramps of width sigma_r over rise time tau_r, total
    length tau_p (all ns); the envelope is exactly 0 outside [0, tau_p].

    __post_init__ alone reads kind. It keeps the pieces the envelope functions
    read: the open flat stretch (tau_r, tau_p - tau_r), the closed ramps
    (start, stop, centre) [0, tau_r] about tau_r and [tau_p - tau_r, tau_p]
    about tau_p - tau_r, the end tau_p, the Gaussian's foot floor =
    exp(-tau_r^2 / (2 sigma_r^2)) and the ramp normalization norm = 1 - floor; a
    constant pulse is flat on (-inf, inf), with no ramps and no end. A norm that
    is 0 or out of float range is a ValueError naming tau_r_ns and sigma_r_ns; a
    tiny one leaves the ramp an absolute error of about 1.1e-16 / norm
    (measured 1.5e-2 at sigma_r / tau_r = 1e7).
    """

    kind: str
    omega_c: float
    tau_p: float = 0.0
    tau_r: float = 0.0
    sigma_r: float = 0.0
    flat: tuple = field(init=False, repr=False, compare=False)
    ramps: tuple = field(init=False, repr=False, compare=False)
    end: float = field(init=False, repr=False, compare=False)
    floor: float = field(init=False, repr=False, compare=False)
    norm: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("omega_c", "tau_p", "tau_r", "sigma_r"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.kind not in ("constant", "square-gaussian"):
            raise ValueError(f"unknown pulse kind {self.kind!r}")
        if self.kind == "constant":
            pieces = (-math.inf, math.inf), (), math.inf, 0.0, 1.0
        else:
            if not 0.0 < self.tau_r <= self.tau_p / 2.0:
                raise ValueError("square-gaussian requires 0 < tau_r <= tau_p/2")
            if self.sigma_r <= 0.0:
                raise ValueError("square-gaussian requires sigma_r > 0")
            try:  # Python floats: an overflow or a zero divisor raises
                floor = math.exp(-self.tau_r**2 / (2.0 * self.sigma_r**2))
            except (OverflowError, ZeroDivisionError):
                floor = 1.0
            if floor == 1.0:
                raise ValueError(f"tau_r_ns = {self.tau_r:g} and sigma_r_ns = {self.sigma_r:g} "
                                 "give no ramp: its normalization 1 - exp(-tau_r^2 / "
                                 "(2 sigma_r^2)) is 0 or out of float range")
            fall = self.tau_p - self.tau_r
            pieces = ((self.tau_r, fall), ((0.0, self.tau_r, self.tau_r), (fall, self.tau_p, fall)),
                      self.tau_p, floor, 1.0 - floor)
        for name, value in zip(("flat", "ramps", "end", "floor", "norm"), pieces):
            object.__setattr__(self, name, value)


def detuning_l(params: SystemParams, n: int) -> complex:
    """Ket-copy complex detuning for qubit level n (MHz)."""
    return params.delta_cd - 0.5j * params.kappa_c + 2.0 * params.chi_ac * n


def detuning_r(params: SystemParams, n: int) -> complex:
    """Bra-copy complex detuning for qubit level n (MHz); exactly
    conj(detuning_l(params, n))."""
    return params.delta_cd + 0.5j * params.kappa_c + 2.0 * params.chi_ac * n


def sg_envelope(t, pulse: PulseSpec, order: int = 0):
    """The envelope (order 0, in [0, 1]) or its order-th time derivative (1 or 2, in
    1/ns^order) at t (ns), a scalar (a float is returned) or an array: at a finite t,
    1 on the open flat stretch, the ramp (exp(-(t - centre)^2 / (2 sigma_r^2)) - floor)
    / norm and its derivatives on each closed ramp (the fall's where the two meet), 0
    elsewhere, so a derivative at a branch point is the ramp side's."""
    if order not in (0, 1, 2):
        raise ValueError(f"unsupported envelope derivative order {order}")
    scalar = np.ndim(t) == 0
    t = np.atleast_1d(np.asarray(t, dtype=float))
    out = np.zeros_like(t)
    if order == 0:
        out[(pulse.flat[0] < t) & (t < pulse.flat[1])] = 1.0
    sig = pulse.sigma_r
    for start, stop, centre in pulse.ramps:
        on = (t >= start) & (t <= stop)
        u = t[on] - centre
        g = np.exp(-(u**2) / (2.0 * sig**2))
        if order == 0:
            out[on] = (g - pulse.floor) / pulse.norm
        else:  # derivatives of g / norm with respect to t
            g /= pulse.norm
            out[on] = (-u / sig**2 if order == 1 else u**2 / sig**4 - 1.0 / sig**2) * g
    return float(out[0]) if scalar else out


def constant_envelope(pulse: PulseSpec, t0, t1) -> np.ndarray:
    """For each interval [t0, t1] (ns) of the broadcast arrays t0, t1: the value
    sg_envelope gives on all of it when one piece of the pulse holds it constant
    there, else NaN; an array of their broadcast shape (0-d for scalars).

    That is 1.0 strictly inside the flat stretch (flat[0] < t0 and t1 < flat[1]:
    any finite interval of a constant pulse) and 0.0 strictly after the end
    (t0 > tau_p). Any interval that overlaps a ramp or touches a branch point
    gives NaN, even where the envelope happens to be constant.
    """
    t0, t1 = np.broadcast_arrays(np.asarray(t0, dtype=float), np.asarray(t1, dtype=float))
    top = (pulse.flat[0] < t0) & (t1 < pulse.flat[1])
    return np.where(top, 1.0, np.where(t0 > pulse.end, 0.0, np.nan))


def dressed_detuning(params: SystemParams, n: int) -> float:
    """delta_cd + 2 chi_ac n (MHz), the resonator detuning as qubit level n dresses it;
    exactly delta_cd at level 0, even where 2 chi_ac overflows."""
    return params.delta_cd + 2.0 * params.chi_ac * n if n else params.delta_cd


def overflow_error(params: SystemParams, levels) -> str | None:
    """The one rule for system keys too large for a float, at the lowest of the qubit
    `levels` where one overflows: the message naming chi_ac_mhz where the dressed
    detuning delta_cd + 2 chi_ac n does, else naming the largest in magnitude of
    delta_cd, 2 chi_ac n and kappa_c/2 where the dressed factor
    (delta_cd + 2 chi_ac n)^2 + (kappa_c/2)^2 does; else None."""
    half_k = params.kappa_c / 2.0
    for n in sorted(map(int, levels)):  # Python floats: an overflow is inf, not a warning
        d = dressed_detuning(params, n)
        if not math.isfinite(d):
            return (f"chi_ac_mhz = {params.chi_ac:g} overflows the dressed detuning "
                    f"delta_cd + 2 chi_ac n of qubit level {n}")
        if not math.isfinite(d * d + half_k * half_k):
            _, key, value = max((abs(params.delta_cd), "delta_cd_mhz", params.delta_cd),
                                (abs(2.0 * params.chi_ac * n), "chi_ac_mhz", params.chi_ac),
                                (half_k, "kappa_c_mhz", params.kappa_c))
            return (f"{key} = {value:g} overflows the dressed factor "
                    f"(delta_cd + 2 chi_ac n)^2 + (kappa_c/2)^2 of qubit level {n}")
    return None


def drive_error(omega_c: float, what: str, values) -> str | None:
    """The one rule for a drive too large for a float: where one of `values`, the
    `what` that the drive scales (a photon number, a sweep row, a transient series),
    is not finite, the message naming the drive omega_c (MHz); else None. Its
    callers meet overflow_error first, so a value that overflows here overflows
    with the drive."""
    if np.isfinite(values).all():
        return None
    return f"drive omega_c = {omega_c:g} MHz overflows {what}"


def resonance_error(params: SystemParams, levels) -> str | None:
    """The one rule for a dressed factor the closed forms cannot divide by: overflow_error's
    message, else the message naming the lowest of the qubit `levels` whose dressed factor
    (delta_cd + 2 chi_ac n)^2 + (kappa_c/2)^2 is 0 (an undamped dressed resonance, also
    when the square underflows), else None."""
    problem = overflow_error(params, levels)
    if problem:
        return problem
    half_k = params.kappa_c / 2.0
    for n in sorted(levels):
        d = dressed_detuning(params, n)
        if d * d + half_k * half_k == 0.0:
            return (f"delta_cd = {params.delta_cd + 0.0:g} MHz puts qubit level {n} on its "
                    f"undamped dressed resonance (delta_cd + 2 chi_ac n = 0, kappa_c = 0)")
    return None


def validity_margin(params: SystemParams, omega_c: float) -> float:
    """Ratio of the collective interaction to the detuning gap product.

    |chi_ac * omega_c| / (sqrt(delta_cd^2 + (kappa_c/2)^2)
                          * sqrt((delta_cd + 2 chi_ac)^2 + (kappa_c/2)^2))

    The perturbative effective map is trustworthy when this is well below 1;
    callers should warn at >= 1. Raises resonance_error's ValueError when
    qubit level 0 or 1 is on its undamped dressed resonance, where the ratio
    has no value.
    """
    problem = resonance_error(params, (0, 1))
    if problem:
        raise ValueError(problem)
    d, chi, k = params.delta_cd, params.chi_ac, params.kappa_c
    rhs = math.sqrt(d**2 + (k / 2.0) ** 2) * math.sqrt((d + 2.0 * chi) ** 2 + (k / 2.0) ** 2)
    return abs(chi * omega_c) / rhs


def truncation_error(photon: float, n_c: int) -> str | None:
    """The one rule for a resonator truncation too small for its photon number.

    A coherent state of photon >= n_c/4 has a Fock tail that n_c levels cut
    off; the message then names the photon number and the bound, else None.
    """
    if photon >= n_c / 4.0:
        return (f"photon number {photon:.3g} >= n_c/4 = {n_c / 4.0:g}: too large for "
                f"n_c = {n_c}; increase the resonator truncation")
    return None


def config_value(where: str, key: str, value, kind):
    """The one rule for a config value: `value` of `key` in `where` as `kind`, str (a
    JSON string), float (a finite number) or int (integral: 14 or 14.0), else ValueError."""
    if kind is str:
        ok = isinstance(value, str)
    else:  # bool is an int; NaN, infinities and huge ints fail the bound
        ok = (isinstance(value, (int, float)) and not isinstance(value, bool)
              and abs(value) <= sys.float_info.max and (kind is float or value % 1 == 0))
    if not ok:
        kinds = {float: "a finite number", int: "an integer", str: "a string"}
        raise ValueError(f"'{key}' in {where} must be {kinds[kind]}, "
                         f"got {json.dumps(value, default=repr)}")
    return kind(value)


def read_section(where: str, sec, spec: dict) -> dict:
    """Section `sec` (`where`: "config", "config section 'pulse'", ...) read by spec
    {key: (kind, default)}: each value through config_value (kind None passes it to a
    reader that checks its elements), an absent key as its default, required if `...`."""
    if not isinstance(sec, dict):
        raise ValueError(f"{where} must be a JSON object, got {json.dumps(sec, default=repr)}")
    unknown = sorted(set(sec) - set(spec))
    if unknown:
        raise ValueError(f"unknown key(s) in {where}: {unknown}")
    missing = sorted(key for key, (_, default) in spec.items() if default is ... and key not in sec)
    if missing:
        raise ValueError(f"missing key(s) in {where}: {missing}")
    return {key: default if key not in sec else sec[key] if kind is None
            else config_value(where, key, sec[key], kind) for key, (kind, default) in spec.items()}


def params_from_dict(cfg: dict) -> SystemParams:
    """Build SystemParams from the top-level JSON config keys (…_mhz names)."""
    return SystemParams(*read_section("config", cfg, PARAM_SPEC).values())  # in field order


def pulse_from_dict(cfg: dict) -> PulseSpec:
    """Build PulseSpec from the JSON config 'pulse' section."""
    spec = {"kind": (str, ...), "omega_c_mhz": (float, ...),
            **dict.fromkeys(("tau_p_ns", "tau_r_ns", "sigma_r_ns"), (float, 0.0))}
    return PulseSpec(*read_section("config section 'pulse'", cfg, spec).values())  # field order


# decimal exponents the kernel prints itself: those of 1e-11 <= |x| < 1e33 after
# rounding to 12 digits, all with a two-digit "e±dd"
_E_LO, _E_HI = -11, 33
# classes per sign and separator: one per exponent and count of trailing mantissa zeros
_E_CLASSES = (_E_HI - _E_LO + 1) * 12
# a scaled value this close to a rounding tie may round either way; "%.12g" decides
_TIE_MARGIN = 2.0**-10


@functools.cache
def _csv_tables():
    """Lookup tables of the _format_block kernel, built on its first call.

    dig, 20000 uint64 words: entry s*10000 + g holds the 4 digits of g as
    (digit, NUL) byte pairs, its trailing zeros NUL as well if s = 1.
    ntz, 20000 ints: entry s*10000 + g is s times the trailing zeros of the 4
    digits of g (4 for g = 0).
    slot, 4*_E_CLASSES x 5 uint64 words: the 40-byte text of class
    (neg*2 + last)*_E_CLASSES + (e - _E_LO)*12 + t, for a negative value, the
    last column, decimal exponent e and a 12-digit mantissa with t trailing
    zeros; NUL where a digit goes or no character does. Bytes: 0 sign, 1-5 the
    "0." and zeros of -4 <= e < 0, 8-31 the 12 (digit, point) pairs, 32-35
    "e±dd", 36-37 the separator.
    mul, div, one float per exponent: |x| * mul / div is |x| * 10**(11 - e) by
    one exact power of ten, so one correctly rounded operation.
    """
    g = np.arange(10000)
    digits = g[:, None] // np.array([1000, 100, 10, 1]) % 10
    tz = sum(g % 10**k == 0 for k in (1, 2, 3, 4))
    pairs = np.zeros((2, 10000, 8), np.uint8)
    pairs[:, :, 0::2] = digits + ord("0")
    pairs[1, :, 0::2] *= np.arange(4) < 4 - tz[:, None]
    e, t, col = np.ix_(range(_E_LO, _E_HI + 1), range(12), range(40))
    sig, pair, in_pairs = 12 - t, (col - 8) // 2, (8 <= col) & (col < 32)
    fixed, below_one = (-4 <= e) & (e < 12), (-4 <= e) & (e < 0)
    sci = ~fixed
    point = np.where(fixed, (pair == e) & (sig > e + 1), (pair == 0) & (sig > 1))
    rules = [(below_one & (col == 1), "0"), (below_one & (col == 2), "."),
             (below_one & (3 <= col) & (col < 2 - e), "0"),
             # fixed notation keeps its integer digits; "0" | digit is the digit
             (in_pairs & (col % 2 == 0) & fixed & (pair <= e), "0"),
             (in_pairs & (col % 2 == 1) & point, "."),
             (sci & (col == 32), "e"), (sci & (col == 33) & (e < 0), "-"),
             (sci & (col == 33) & (e >= 0), "+"), (sci & (col == 34), ord("0") + abs(e) // 10),
             (sci & (col == 35), ord("0") + abs(e) % 10)]
    slot = np.empty((2, 2, _E_HI - _E_LO + 1, 12, 40), np.uint8)
    slot[:] = np.select([where for where, _ in rules],
                        [ord(c) if isinstance(c, str) else c for _, c in rules])
    slot[1, ..., 0] = ord("-")
    slot[:, 0, ..., 36] = ord(",")
    slot[:, 1, ..., 36:38] = np.frombuffer(b"\r\n", np.uint8)
    power = np.array([float(10 ** abs(11 - e)) for e in range(_E_LO, _E_HI + 1)])
    up = np.arange(_E_LO, _E_HI + 1) <= 11
    return (pairs.view(np.uint64).ravel(), np.concatenate([np.zeros_like(tz), tz]),
            slot.reshape(-1, 40).view(np.uint64), np.where(up, power, 1.0),
            np.where(up, 1.0, power))


def _format_block(block) -> bytes:
    """The rows of a 2-D float block, signed zeros folded, as write_csv writes them.

    A value x with 1e-11 <= |x| < 1e33 is scaled by an exact power of ten to y
    in [1e11, 1e12), within 1.2e-4 of exact, so unless y lies within
    _TIE_MARGIN of a tie rint(y) is the 12-digit mantissa "%.12g" prints. Its
    text is its class slot ORed with the digit words of the mantissa, NULs
    dropped. Any other value is printed by "%.12g" % x into its slot.
    """
    dig, ntz, slot, mul, div = _csv_tables()
    x = block.ravel()
    a = np.abs(x)
    slow = ~((a >= 1e-11) & (a < 1e33))  # NaN compares false
    a[slow] = 1.0
    # ex = e - _E_LO indexes the per-exponent tables; truncation floors, and clips
    # the -0.x that log10 may give at 1e-11 to 0
    ex = (np.log10(a) - _E_LO).astype(np.intp)
    y = a * mul.take(ex) / div.take(ex)
    # log10 rounded across a power of ten: one step back (at 1e-11, rint absorbs it)
    off = (y < 1e11) & (ex > 0) | (y >= 1e12)
    if off.any():
        i = np.flatnonzero(off)
        ex[i] += np.where(y[i] < 1e11, -1, 1)
        y[i] = a[i] * mul.take(ex[i]) / div.take(ex[i])
    m = np.rint(y)
    slow |= np.abs(y - m) >= 0.5 - _TIE_MARGIN
    carry = m == 1e12  # from 999999999999.5 up: 1e11 at the next exponent
    ex += carry
    np.putmask(m, carry, 1e11)
    # the three 4-digit groups; one with no nonzero digit after it drops its trailing zeros
    g = np.empty((3, x.size), np.intp)
    rest = m.astype(np.intp)
    np.floor_divide(rest, 10**8, out=g[0])
    rest -= g[0] * 10**8
    np.floor_divide(rest, 10**4, out=g[1])
    np.subtract(rest, g[1] * 10**4, out=g[2])
    zero_tail = g[2] == 0
    g[0] += (zero_tail & (g[1] == 0)) * 10000
    g[1] += zero_tail * 10000
    g[2] += 10000
    t = ntz.take(g)
    cls = ex * 12 + t[0] + t[1] + t[2] + (x < 0) * (2 * _E_CLASSES)
    cls.reshape(block.shape)[:, -1] += _E_CLASSES
    text = slot.take(cls, axis=0)
    text.T[1:4] |= dig.take(g)
    chars = text.view(np.uint8)
    i = np.flatnonzero(slow)
    if i.size:  # padded with spaces, which "%.12g" never prints
        own = ("%-36.12g" * i.size % tuple(x[i].tolist())).encode()
        chars[i, :36] = np.frombuffer(own, np.uint8).reshape(-1, 36)
    return chars.tobytes().translate(None, b"\0 ")


def write_csv(path, columns: dict, header: bool = True) -> None:
    """Write equal-length 1-D columns, keyed by their header names, one row per index.

    Each value is converted to float and printed as "%.12g" % (x + 0.0), the
    same text as f"{x + 0.0:.12g}": 12 significant digits, integers without a
    decimal point, and the + 0.0 folding signed zeros. Rows are formatted a
    block at a time by _format_block, which prints a value whose rounding it
    cannot settle, or that lies outside 1e-11 <= |x| < 1e33, with "%.12g"
    itself; memory stays flat in the row count. A complex column, an empty
    mapping, a column that is not 1-D, or columns of different lengths raise
    ValueError before the file is opened.
    """
    if any(np.iscomplexobj(c) for c in columns.values()):
        raise ValueError("write_csv takes real columns; write complex ones as .real and .imag")
    data = [np.asarray(c, dtype=float) for c in columns.values()]
    shapes = {name: col.shape for name, col in zip(columns, data)}
    if len(set(shapes.values())) != 1 or data[0].ndim != 1:
        raise ValueError(f"write_csv takes one or more 1-D columns of equal length, got {shapes}")
    with open(path, "w", newline="") as fh:
        if header:
            csv.writer(fh).writerow(list(columns))
        for start in range(0, len(data[0]), _CSV_BLOCK_ROWS):
            block = np.column_stack([col[start:start + _CSV_BLOCK_ROWS] for col in data]) + 0.0
            fh.write(_format_block(block).decode("ascii"))
