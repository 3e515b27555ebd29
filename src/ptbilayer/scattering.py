"""Transfer-matrix scattering for the two-slab stack.

The chain runs vacuum | gain [-l, 0] | loss [0, l] | vacuum and factors as
interface matrices times per-layer propagation. Interface matrices are
flux-normalized and carry phase factors built from the real parts of the
indices at the absolute interface positions; propagation is a decay-only
diagonal diag(e^{-n'' w l / c}, e^{+n'' w l / c}).

Two bookkeeping modes are supported. In "full_complex" (default) the Fresnel
ratios keep the complex indices and the factorization reconstructs the exact
complex propagation e^{i n w l / c}; det A = 1 identically. In
"paper_real_part" the ratios use only the real parts of the indices, a common
small-absorption approximation; phases are real-part phases in both modes.

transfer_chain builds one point's chain from numbers, or the (N, 2, 2) rows
of a stack from arrays of indices and frequencies, each row the point's bit
for bit; scattering_from_transfer and scattering_rows extract their S.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .media import C_VACUUM, Bilayer, libm_square, permittivity, refractive_index

MODE_FULL = "full_complex"
MODE_PAPER = "paper_real_part"

_MODE_ALIASES = {
    "full_complex": MODE_FULL, "full-complex": MODE_FULL, "full": MODE_FULL,
    "exact": MODE_FULL,
    "paper_real_part": MODE_PAPER, "paper-real-part": MODE_PAPER,
    "paper": MODE_PAPER,
}

# Eigenvalue moduli within PHASE_TOL of 1 count as unimodular, and a pair
# closer than PHASE_TOL (relative) as coalesced.
PHASE_TOL = 1e-4

# Row-failure bounds, stated once for the scalar functions and the grid kernel.
A22_MIN = 1e-300          # SingularTransfer below this |A22|, or when the two
TRANSMISSION_TOL = 1e-8   # transmission estimates differ by more (relative)
EIGENVALUE_TOL = 1e-8     # InconsistentEigenvalues: misses the closed form (relative)
MODULUS_TIE_TOL = 1e-12   # eigenvalue moduli this close (relative) order by argument


class SingularTransfer(Exception):
    """Transfer matrix too close to singular for scattering extraction."""


class InconsistentEigenvalues(Exception):
    """Eigenvalue pair fits neither the unimodular nor the inverse-moduli pattern."""


def canonical_mode(mode: str) -> str:
    try:
        return _MODE_ALIASES[mode]
    except KeyError:
        raise ValueError(
            f"unknown mode {mode!r}; expected {MODE_FULL} or {MODE_PAPER}") from None


class _cached(cached_property):
    """cached_property without the lock that 3.10 and 3.11 take on every first
    read: func(obj) is stored in obj.__dict__ on the first read of an
    instance, which later reads find first; an exception is not stored."""

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.attrname] = self.func(obj)
        return value


@dataclass(frozen=True)
class ScatteringAmplitudes:
    """Reflection/transmission amplitudes of a reciprocal two-port: numbers, or arrays over rows."""

    r_left: complex
    t: complex
    r_right: complex

    T = _cached(lambda self: _power(self.t))
    R_left = _cached(lambda self: _power(self.r_left))
    R_right = _cached(lambda self: _power(self.r_right))

    def matrix(self) -> np.ndarray:
        """S, (2, 2) for numbers or (N, 2, 2) for arrays."""
        return _stack(self.r_left, self.t, self.t, self.r_right)


@dataclass(frozen=True)
class TransferChain:
    """Total transfer matrix and the partial products seen by internal sources.

    from_gain maps amplitudes at the gain layer into the outputs (the product
    of every factor to its right in the chain); from_loss likewise for the
    loss layer. indices holds the layer indices (n_gain, n_loss), and omega,
    layer_thickness and mode (canonical) the point the chain was built at.
    A stack's chain holds (N, 2, 2) rows and arrays of indices and omega;
    its S is scattering_rows(total), and s reads one point's.
    """

    total: np.ndarray
    from_gain: np.ndarray
    from_loss: np.ndarray
    indices: tuple[complex, complex]
    omega: float
    layer_thickness: float
    mode: str

    @_cached
    def s(self) -> ScatteringAmplitudes:
        """scattering_from_transfer(total), extracted on first read."""
        return scattering_from_transfer(self.total)

    def at(self, rows) -> "TransferChain":
        """The chain of a stack's rows at rows, an index array."""
        ng, nl = self.indices
        return TransferChain(self.total[rows], self.from_gain[rows], self.from_loss[rows],
                             (ng[rows], nl[rows]), self.omega[rows], self.layer_thickness,
                             self.mode)


def interface_matrix(n_from: complex, n_to: complex, omega: float, z: float,
                     mode: str = MODE_FULL) -> np.ndarray:
    """Flux-normalized interface matrix at absolute position z."""
    mode = canonical_mode(mode)
    k = omega / C_VACUUM
    nf, nt = complex(n_from), complex(n_to)
    a, b = (complex(nf.real), complex(nt.real)) if mode == MODE_PAPER else (nf, nt)
    if a == 0 or b == 0:   # a zero index, or paper mode's real part: the kernel's row is singular
        raise SingularTransfer("interface ratio divides by a zero index")
    ar, br = nf.real, nt.real
    pre = np.sqrt(a / b)
    t11 = pre * (b + a) / (2 * a) * np.exp(1j * (ar - br) * k * z)
    t12 = pre * (b - a) / (2 * a) * np.exp(-1j * (ar + br) * k * z)
    t21 = t12 * np.exp(2j * (ar + br) * k * z)
    t22 = t11 * np.exp(-2j * (ar - br) * k * z)
    return np.array([[t11, t12], [t21, t22]])


def _interface_rows(n_from, n_to, omega, z: float, mode: str) -> np.ndarray:
    """interface_matrix over arrays of indices and frequencies, (N, 2, 2), each
    row rounded as the number form rounds it; mode is canonical. A row that
    divides by a zero index is inf or nan, which scattering_rows finds singular."""
    k = omega / C_VACUUM
    ar, br = n_from.real, n_to.real
    a, b = (_cx(ar, 0.0), _cx(br, 0.0)) if mode == MODE_PAPER else (n_from, n_to)
    pre = np.sqrt(_py_div(a, b))
    t11 = _mul(_mul(pre, b + a) / (2 * a), _cis((ar - br) * k * z))
    t12 = _mul(_mul(pre, b - a) / (2 * a), _cis(-(ar + br) * k * z))
    t21 = _mul(t12, _cis(2 * (ar + br) * k * z))
    t22 = _mul(t11, _cis(-2 * (ar - br) * k * z))
    return _stack(t11, t12, t21, t22)


def propagation_factors(n, omega, thickness: float) -> np.ndarray:
    """Decay-only propagation over one layer (mode-independent), the diagonal
    (e^{-u}, e^{u}) of its matrix: M @ diag(f) is M * f, which rounds alike.
    n is one index or an array of them, whose factors stack on a new first axis."""
    u = np.imag(n) * (omega / C_VACUUM) * thickness
    return np.array([np.exp(-u), np.exp(u)])


def layer_indices(bilayer: Bilayer, omega: float) -> tuple[complex, complex]:
    """(n_gain, n_loss) at omega."""
    ng = refractive_index(permittivity(bilayer.gain, omega))
    nl = refractive_index(permittivity(bilayer.loss, omega))
    return ng, nl


def transfer_chain(bilayer: Bilayer, omega, mode: str = MODE_FULL,
                   indices: tuple = None) -> TransferChain:
    """Assemble the five-factor chain and its internal partial products.

    indices, when given, is layer_indices(bilayer, omega) as the caller took
    it; the chain then reads only the bilayer's layer thickness. Given arrays
    of omega and of both indices, it is the chain of a stack's rows, each row
    the chain of its numbers bit for bit.
    """
    mode = canonical_mode(mode)
    ng, nl = layer_indices(bilayer, omega) if indices is None else indices
    l = bilayer.layer_thickness
    rows = isinstance(omega, np.ndarray)   # a stack's rows, or one point on numbers
    interface = _interface_rows if rows else interface_matrix
    one = np.full(len(omega), 1.0 + 0j) if rows else 1.0 + 0j
    t1 = interface(one, ng, omega, -l, mode)
    r2 = propagation_factors(ng, omega, l)
    t2 = interface(ng, nl, omega, 0.0, mode)
    r3 = propagation_factors(nl, omega, l)
    from_loss = interface(nl, one, omega, l, mode)
    if rows:   # the (N, 1, 2) factors scale the columns of each row's matrix
        r2, r3 = r2.T[:, None, :], r3.T[:, None, :]
    from_gain = (from_loss * r3) @ t2
    return TransferChain((from_gain * r2) @ t1, from_gain, from_loss, (ng, nl), omega, l, mode)


def scattering_from_transfer(transfer) -> ScatteringAmplitudes:
    """Extract (r_left, t, r_right) from a total transfer matrix; a chain gives its s.

    The transmission is computed two ways, 1/A22 and det A / A22 with the
    analytic det A = 1; disagreement beyond TRANSMISSION_TOL relative (or
    |A22| below A22_MIN) raises SingularTransfer, as does a chain that
    overflowed to inf or nan (the tests are written so that nan fails them).
    """
    if isinstance(transfer, TransferChain):
        return transfer.s
    A = np.asarray(transfer)
    a22 = A[1, 1]
    if not abs(a22) >= A22_MIN:
        raise SingularTransfer("A22 vanishes; stack is at a scattering pole")
    t = 1.0 / a22
    det = A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0]
    t_alt = det / a22
    if not abs(t - t_alt) <= TRANSMISSION_TOL * max(abs(t), 1e-300):
        raise SingularTransfer(
            f"transmission estimates disagree: {t} vs {t_alt}")
    return ScatteringAmplitudes(r_left=-A[1, 0] / a22, t=t, r_right=A[0, 1] / a22)


def scattering_rows(total: np.ndarray) -> tuple[ScatteringAmplitudes, np.ndarray]:
    """scattering_from_transfer over a stack's (N, 2, 2) totals: every row's
    amplitudes, and the mask of the rows where it raises SingularTransfer."""
    a22 = total[:, 1, 1]
    t = 1.0 / a22
    t_alt = (_mul(total[:, 0, 0], a22) - _mul(total[:, 0, 1], total[:, 1, 0])) / a22
    # written so that a chain that overflowed to inf or nan is singular
    singular = ~((_modulus(a22) >= A22_MIN)
                 & (_modulus(t - t_alt) <= TRANSMISSION_TOL * np.maximum(_modulus(t), 1e-300)))
    return ScatteringAmplitudes(-total[:, 1, 0] / a22, t, total[:, 0, 1] / a22), singular


def eigenvalues(transfer) -> tuple[complex, complex]:
    """Scattering-matrix eigenvalues, ordered by descending modulus.

    Ties in modulus (within MODULUS_TIE_TOL relative) break by ascending
    principal argument. A closed form in the transfer entries,
    ((A12 - A21) +- sqrt((A12 - A21)^2 + 4 A11 A22)) / (2 A22),
    cross-checks the numerical pair to EIGENVALUE_TOL.
    """
    s = scattering_from_transfer(transfer)
    A = transfer.total if isinstance(transfer, TransferChain) else np.asarray(transfer)
    lam = np.linalg.eigvals(s.matrix())
    if misses_closed_form(A, lam):
        raise InconsistentEigenvalues(
            "numerical and closed-form eigenvalues disagree")

    l1, l2 = lam
    m1, m2 = abs(l1), abs(l2)
    if abs(m1 - m2) <= MODULUS_TIE_TOL * max(m1, m2, 1e-300):
        if np.angle(l1) > np.angle(l2):
            l1, l2 = l2, l1
    elif m1 < m2:
        l1, l2 = l2, l1
    return complex(l1), complex(l2)


def misses_closed_form(A, lam):
    """Whether S's eigenpair lam misses eigenvalues' closed form in A by more than
    EIGENVALUE_TOL: one (2, 2) A and pair (2,), or elementwise over (N, 2, 2) and (N, 2)."""
    a11, a12, a21, a22 = _entries(A)
    l1, l2 = lam.T
    b = a12 - a21
    root = np.sqrt(_mul(b, b) + _mul(4 * a11, a22))
    c1, c2 = (b + root) / (2 * a22), (b - root) / (2 * a22)
    scale = _max(_max(_modulus(l1), _modulus(l2)), 1e-300)
    mismatch = _max(_min(_modulus(l1 - c1), _modulus(l1 - c2)),
                    _min(_modulus(l2 - c1), _modulus(l2 - c2)))
    return mismatch > EIGENVALUE_TOL * scale


# elementwise helpers: a number's own arithmetic, or an array's that rounds alike

def _modulus(z):
    """|z|: abs(z) on a number, np.hypot of the parts (the C library's, as abs's) on arrays."""
    return np.hypot(z.real, z.imag) if isinstance(z, np.ndarray) else abs(z)


def _power(a):
    """|a|^2: abs(a) ** 2 on a number, as its type rounds it, libm_square on arrays."""
    return libm_square(_modulus(a)) if isinstance(a, np.ndarray) else abs(a) ** 2


def _cx(re, im):
    """re + i im, part by part: complex(re, im) on two numbers, else an array
    (one of re and im may be a number)."""
    if not (isinstance(re, np.ndarray) or isinstance(im, np.ndarray)):
        return complex(re, im)
    re, im = np.asarray(re), np.asarray(im)
    z = np.empty(re.shape if re.ndim >= im.ndim else im.shape, dtype=complex)
    z.real = re
    z.imag = im
    return z


def _mul(a, b):
    """a * b as scalar complex multiplication rounds it: arrays in real arithmetic,
    because numpy's SIMD complex multiply fuses multiply-adds and scalars do not."""
    if not (isinstance(a, np.ndarray) or isinstance(b, np.ndarray)):
        return a * b
    return _cx(a.real * b.real - a.imag * b.imag, a.real * b.imag + a.imag * b.real)


def _py_div(a, b) -> np.ndarray:
    """a / b over arrays with Python's complex-division algorithm, which divides
    by the denominator where numpy multiplies by its reciprocal."""
    ar, ai, br, bi = a.real, a.imag, b.real, b.imag
    by_real = np.abs(br) >= np.abs(bi)
    with np.errstate(all="ignore"):   # both branches are computed everywhere
        ratio = np.where(by_real, bi / br, br / bi)
        re = np.where(by_real, (ar + ai * ratio) / (br + bi * ratio),
                      (ar * ratio + ai) / (br * ratio + bi))
        im = np.where(by_real, (ai - ar * ratio) / (br + bi * ratio),
                      (ai * ratio - ar) / (br * ratio + bi))
    return _cx(re, im)


def _where(cond, a, b):
    """np.where(cond, a, b) over arrays; a if cond else b on a number."""
    return np.where(cond, a, b) if isinstance(cond, np.ndarray) else (a if cond else b)


def _max(a, b):   # Python's max(a, b), elementwise: b where b > a, else a
    return _where(b > a, b, a)


def _min(a, b):   # Python's min(a, b), elementwise: b where b < a, else a
    return _where(b < a, b, a)


def _cis(theta):   # 1j * theta is exact, fused or not
    return np.exp(1j * theta)


def _each(fn, x):
    """fn (a math-module function) element by element over an array."""
    return np.array([fn(v) for v in x.tolist()], dtype=float)


def _entries(m):
    """(m00, m01, m10, m11): numbers of one (2, 2) matrix, or arrays over (N, 2, 2) rows."""
    t = m.T
    return t[0, 0], t[1, 0], t[0, 1], t[1, 1]


def _stack(m00, m01, m10, m11) -> np.ndarray:
    """The (2, 2) matrix of four numbers, or the (N, 2, 2) rows of four arrays."""
    if not isinstance(m00, np.ndarray):
        return np.array([[m00, m01], [m10, m11]])
    m = np.empty((len(m00), 2, 2), dtype=complex)
    m[:, 0, 0], m[:, 0, 1], m[:, 1, 0], m[:, 1, 1] = m00, m01, m10, m11
    return m


# inf and nan eigenvalues get a class like any other; numpy need not warn about them
@np.errstate(invalid="ignore", over="ignore")
def phase_classes(l1, l2) -> np.ndarray:
    """classify_phase elementwise over eigenpairs (l1, l2), complex numbers or
    arrays, as an object array with "inconsistent" where it raises."""
    m1, m2 = _modulus(l1), _modulus(l2)
    return np.select(
        [_modulus(l1 - l2) <= PHASE_TOL * np.maximum(np.maximum(m1, m2), 1.0),
         (np.abs(m1 - 1) <= PHASE_TOL) & (np.abs(m2 - 1) <= PHASE_TOL),
         (np.abs(m1 * m2 - 1) <= PHASE_TOL) & (np.abs(m1 - 1) > PHASE_TOL)],
        ["exceptional", "exact", "broken"], "inconsistent").astype(object)


def classify_phase(eigenpair: tuple[complex, complex]) -> str:
    """"exact" (both unimodular), "broken" (inverse moduli), or "exceptional".

    Coalescence within PHASE_TOL classifies as exceptional; otherwise
    unimodularity of both eigenvalues marks the exact phase and an
    inverse-moduli pair the broken phase. Anything else raises
    InconsistentEigenvalues.
    """
    l1, l2 = eigenpair
    phase = phase_classes(l1, l2).item()
    if phase == "inconsistent":
        raise InconsistentEigenvalues(
            f"moduli ({abs(l1)}, {abs(l2)}) fit neither phase at tol={PHASE_TOL}")
    return phase


def _wrap(phi: float) -> float:
    return (phi + np.pi) % (2 * np.pi) - np.pi


def conservation_parts(s):
    """(generalized, phase) residuals of conservation_residuals elementwise over
    s's amplitudes, numbers or arrays; phase is nan where it does not apply."""
    T = s.T
    gen = np.abs(np.abs(T - 1.0) - np.sqrt(s.R_left * s.R_right))
    smallest = np.minimum(np.minimum(_modulus(s.r_left), _modulus(s.r_right)), _modulus(s.t))
    no_phase = (smallest < 1e-14) | (np.abs(T - 1.0) < 1e-14)
    pl, pr, pt = np.angle(s.r_left), np.angle(s.r_right), np.angle(s.t)
    phase = np.where(T < 1.0, np.abs(_wrap(pl - pr)),
                     np.maximum(np.abs(_wrap(pl - pr + np.pi)),
                                np.abs(_wrap(pl - pt + np.pi / 2))))
    return gen, np.where(no_phase, np.nan, phase)


def conservation_residuals(s: ScatteringAmplitudes) -> dict:
    """Residuals of the generalized conservation law and its phase relations.

    generalized: | |T - 1| - sqrt(R_L R_R) |. phase: for T < 1 the two
    reflection phases coincide; for T > 1 they differ by pi and the left
    reflection leads the transmission by -pi/2. The phase entry is None
    (not applicable) when any amplitude modulus is below 1e-14 or T is at
    unity within 1e-14.
    """
    gen, phase = conservation_parts(s)
    return {"generalized": float(gen), "phase": None if np.isnan(phase) else float(phase)}
