"""Exact fractional Gaussian noise sampling via circulant embedding.

Unit-variance fGn with Hurst parameter H has autocovariance

    gamma(k) = 0.5 * (|k+1|^{2H} - 2|k|^{2H} + |k-1|^{2H}).

The covariance of a length-n stretch is embedded in a circulant matrix of
size 2M (M the smallest power of two >= n), whose eigenvalues are the FFT
of the extended autocovariance sequence and are nonnegative for fGn.  One
draw then costs a single inverse real FFT of independent Gaussian spectral
amplitudes.

Randomness is counter based: each row's Philox generator is reset to a
plain-int state dict with key [master_seed, (stream << 48) | replication],
counter 0 and an empty buffer, the state ``Philox(key=...)`` starts in
without the OS entropy its constructor reads.  So replications can be
produced in any batch layout, in any order, on any number of workers,
and still come out bit identical.  ``sample_fgn`` is the
(seed, replication=0, stream=0) special case.  Streams separate consumers
(0 = direct draws, 1 = limit-distribution simulation, 2 = experiment
replications).  A row's normals depend on neither H nor n, so a
``SamplerGroup`` of samplers with one embedding size draws them once for
all its samplers.
"""

import numbers
from dataclasses import dataclass, field

import numpy as np

from . import _parallel

#: replication indices lie in [0, 2**48): the low bits of a key's high word
REPLICATION_LIMIT = 1 << 48

#: relative tolerance for clamping FFT round-off in the eigenvalues
EIG_TOL = 1e-8

#: stream identifiers, one per consumer of fGn draws
STREAM_DIRECT = 0
STREAM_LIMIT = 1
STREAM_EXPERIMENT = 2
#: stream ids lie in [0, 2**15), so a key's high word stays below 2**63
_STREAM_BOUND = 1 << 15

#: master seeds lie in [0, SEED_LIMIT): NumPy converts a larger seed word
#: of a list key through float64, so such seeds would share their draws
SEED_LIMIT = 1 << 63


def fgn_autocovariance(hurst, lags):
    """Autocovariance gamma(k) of unit-variance fGn at integer lags.

    Parameters
    ----------
    hurst : float in (0, 1)
    lags : int or array_like of int
        Nonnegative lags (negative lags are folded by symmetry).

    Returns
    -------
    float or ndarray matching the shape of ``lags``.
    """
    check_real(hurst, "hurst", 0.0, 1.0, "lie in (0, 1)")
    k = np.abs(np.asarray(lags, dtype=np.float64))
    two_h = 2.0 * hurst
    gam = 0.5 * ((k + 1.0) ** two_h - 2.0 * k**two_h + np.abs(k - 1.0) ** two_h)
    if np.ndim(lags) == 0:
        return float(gam)
    return gam


def check_integer(value, name, lo, hi, rule):
    """``value`` as an int if it is an integer in [lo, hi), else ValueError.

    NumPy ints pass, bool does not; errors read ``NAME must RULE, got VALUE``.
    """
    # an exact int skips the ABC check, which costs about 0.3 us a call
    if type(value) is not int and (not isinstance(value, numbers.Integral)
                                   or isinstance(value, bool)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if not lo <= value < hi:
        raise ValueError(f"{name} must {rule}, got {value}")
    return int(value)


def is_real(value):
    """True for a real number (NumPy's too) that is not a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def check_real(value, name, lo, hi, rule):
    """ValueError unless ``value`` is a real number in the open (lo, hi).

    The open bounds refuse NaN; errors read ``NAME must RULE, got VALUE``,
    or ``NAME must be a number, got VALUE!r`` for a non-number or a bool.
    """
    if not is_real(value):
        raise ValueError(f"{name} must be a number, got {value!r}")
    if not lo < value < hi:
        raise ValueError(f"{name} must {rule}, got {value}")


def check_seed(seed, name="master_seed"):
    """``seed`` as an int if an integer in [0, 2**63), else ValueError."""
    return check_integer(seed, name, 0, SEED_LIMIT, "lie in [0, 2**63)")


@dataclass(frozen=True)
class FgnParams:
    """Hurst parameter and series length for one sampler."""

    hurst: float
    length: int

    def __post_init__(self):
        check_real(self.hurst, "hurst", 0.0, 1.0, "lie in (0, 1)")
        object.__setattr__(self, "length", check_integer(
            self.length, "length", 2, np.inf, "be at least 2"))


@dataclass(frozen=True)
class FgnSampler:
    """Immutable sampler: parameters plus precomputed spectral weights.

    ``spectral_weights`` holds the 2M eigenvalues of the circulant
    embedding, clamped to be nonnegative.  Safe to share across workers.
    """

    params: FgnParams
    spectral_weights: np.ndarray = field(repr=False)

    @property
    def embedding_size(self):
        """M, half the circulant size; a power of two >= length."""
        return self.spectral_weights.shape[0] // 2


def embedding_size(length):
    """M for a series of ``length``: the smallest power of two >= length."""
    return 1 << (length - 1).bit_length()


def build_sampler(params):
    """Precompute the spectral weights of the circulant embedding.

    M is ``embedding_size(length)``.  The fGn embedding is nonnegative
    definite, so an eigenvalue below -EIG_TOL times the largest, beyond
    FFT round-off, raises RuntimeError.
    """
    m = embedding_size(params.length)
    gam = fgn_autocovariance(params.hurst, np.arange(m + 1))
    circ = np.concatenate([gam, gam[m - 1 : 0 : -1]])
    lam = np.fft.fft(circ).real
    if lam.min() < -EIG_TOL * lam.max():
        raise RuntimeError(
            f"circulant embedding is indefinite for hurst={params.hurst}, "
            f"length={params.length}: smallest eigenvalue {lam.min():.3g}"
        )
    return FgnSampler(params, np.clip(lam, 0.0, None))


@dataclass(frozen=True)
class SamplerGroup:
    """Samplers of one embedding size M that share each row's normals.

    A row's 2M normals depend only on (master_seed, replication, stream),
    so ``sample_fgn_block(group, ...)`` sets each row's key and draws its
    normals once, and every sampler's amplitudes and inverse FFT read
    them.
    """

    samplers: tuple

    def __post_init__(self):
        sizes = {sampler.embedding_size for sampler in self.samplers}
        if len(sizes) != 1:
            raise ValueError(
                f"a sampler group needs one embedding size, got "
                f"{len(self.samplers)} samplers of sizes {sorted(sizes)}"
            )

    @property
    def embedding_size(self):
        """M, shared by every sampler of the group."""
        return self.samplers[0].embedding_size


def sample_fgn_block(sampler, master_seed, replications, stream=STREAM_DIRECT):
    """Draw one fGn series per replication index; shape (len, n).

    ``master_seed`` must be an integer in [0, 2**63), ``stream`` one in
    [0, 2**15) and each replication index in [0, 2**48), else ValueError.
    Row r is a pure function of (params, master_seed, replications[r],
    stream), independent of how the indices are grouped into blocks.  One
    Philox generator and one plain-int state dict serve the call: before
    a row's normals are drawn, the dict's key becomes [master_seed,
    (stream << 48) | replication] and the generator is reset to it, the
    state of ``Philox(key=...)`` without its entropy read.  Both key words
    lie below 2**63, so distinct triples have distinct keys.  Rows go
    through the draw, the amplitudes and the inverse FFT in blocks of
    about ``_parallel.BLOCK_BYTES`` of normals, which reuse one normal and
    one amplitude buffer; the amplitudes are written into that buffer's
    real and imaginary parts, with no complex temporaries.

    ``sampler`` may also be a ``SamplerGroup``: then each row's normals
    are drawn once for every sampler of the group, and the result is a
    list of blocks, one per sampler, each bit for bit the block that
    sampler would draw alone.
    """
    check_seed(master_seed)
    stream = check_integer(stream, "stream", 0, _STREAM_BOUND,
                           "lie in [0, 2**15)")
    reps = [check_integer(rep, "replication index", 0, REPLICATION_LIMIT,
                          "lie in [0, 2**48)") for rep in replications]
    is_group = isinstance(sampler, SamplerGroup)
    samplers = sampler.samplers if is_group else (sampler,)
    m = sampler.embedding_size
    root_2m = np.sqrt(2.0 * m)
    bit_generator = np.random.Philox()
    generator = np.random.Generator(bit_generator)
    key = [master_seed, 0]
    state = {"bit_generator": "Philox",
             "state": {"counter": [0, 0, 0, 0], "key": key},
             "buffer": [0, 0, 0, 0], "buffer_pos": 4,
             "has_uint32": 0, "uinteger": 0}
    block = max(1, min(len(reps), _parallel.BLOCK_BYTES // (16 * m)))
    w = np.empty((block, 2 * m))
    # spectral amplitudes: one complex row per replication
    amps = np.empty((block, m + 1), dtype=np.complex128)
    # (square-rooted weights, their scaled interior, output block) of
    # each sampler; the blocks come after the two buffers, which are
    # freed at return
    plans = []
    for one in samplers:
        weights = np.sqrt(one.spectral_weights)
        plans.append((weights, np.sqrt(float(m)) * weights[1:m],
                      np.empty((len(reps), one.params.length))))
    for lo in range(0, len(reps), block):
        block_reps = reps[lo : lo + block]
        wb, ab = w[: len(block_reps)], amps[: len(block_reps)]
        for rep, row in zip(block_reps, wb):
            key[1] = (stream << 48) | rep
            bit_generator.state = state
            generator.standard_normal(out=row)
        for weights, scale, out in plans:
            ab[:, 0] = root_2m * weights[0] * wb[:, 0]
            ab[:, m] = root_2m * weights[m] * wb[:, 1]
            np.multiply(scale, wb[:, 2 : m + 1], out=ab.real[:, 1:m])
            np.multiply(scale, wb[:, m + 1 :], out=ab.imag[:, 1:m])
            out[lo : lo + len(ab)] = np.fft.irfft(
                ab, 2 * m, axis=-1)[:, : out.shape[1]]
    blocks = [out for _, _, out in plans]
    return blocks if is_group else blocks[0]


def sample_fgn(sampler, seed):
    """One stationary Gaussian vector with mean 0 and autocovariance gamma.

    Deterministic in (sampler.params, seed); equals replication 0 of
    stream 0 under master seed ``seed``, an integer in [0, 2**63).
    """
    return sample_fgn_block(sampler, seed, [0])[0]

