"""Exact fractional Gaussian noise sampling via circulant embedding.

Unit-variance fGn with Hurst parameter H has autocovariance

    gamma(k) = 0.5 * (|k+1|^{2H} - 2|k|^{2H} + |k-1|^{2H}).

The covariance of a length-n stretch is embedded in a circulant matrix of
size 2M (M the smallest power of two >= n), whose eigenvalues are the FFT
of the extended autocovariance sequence and are nonnegative for fGn.  One
draw then costs a single inverse real FFT of independent Gaussian spectral
amplitudes.

Randomness is counter based: every draw is keyed by a
(master_seed, replication, stream) triple through a Philox generator, so
replications can be produced in any batch layout, in any order, on any
number of workers, and still come out bit identical.  ``sample_fgn`` is
the (seed, replication=0, stream=0) special case.  Streams separate
consumers (0 = direct draws, 1 = limit-distribution simulation,
2 = experiment replications).  A row's normals depend on neither H nor
n, so a ``SamplerGroup`` of samplers with one embedding size draws them
once for all its samplers.
"""

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
    if not 0.0 < hurst < 1.0:
        raise ValueError(f"hurst must lie in (0, 1), got {hurst}")
    k = np.abs(np.asarray(lags, dtype=np.float64))
    two_h = 2.0 * hurst
    gam = 0.5 * ((k + 1.0) ** two_h - 2.0 * k**two_h + np.abs(k - 1.0) ** two_h)
    if np.ndim(lags) == 0:
        return float(gam)
    return gam


def check_seed(seed, name="master_seed"):
    """Return ``seed`` if 0 <= seed < 2**63, else raise ValueError."""
    if not 0 <= seed < SEED_LIMIT:
        raise ValueError(f"{name} must lie in [0, 2**63), got {seed}")
    return seed


@dataclass(frozen=True)
class FgnParams:
    """Hurst parameter and series length for one sampler."""

    hurst: float
    length: int

    def __post_init__(self):
        if not 0.0 < self.hurst < 1.0:
            raise ValueError(f"hurst must lie in (0, 1), got {self.hurst}")
        if self.length < 2:
            raise ValueError(f"length must be at least 2, got {self.length}")


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


class _Workspace:
    """The Philox generator and the buffers that a group's draws reuse."""

    def __init__(self):
        self.bit_generator = np.random.Philox()
        self.generator = np.random.Generator(self.bit_generator)
        self._buffers = {}

    def buffer(self, name, rows, columns, dtype=np.float64):
        """The leading ``rows`` rows of buffer ``name``, grown on demand."""
        held = self._buffers.get(name)
        if held is None or len(held) < rows:
            held = self._buffers[name] = np.empty((rows, columns), dtype)
        return held[:rows]

    def drop(self, *names):
        """Free the named buffers; a later ``buffer`` call makes them anew."""
        for name in names:
            self._buffers.pop(name, None)


@dataclass(frozen=True)
class SamplerGroup:
    """Samplers of one embedding size M that share each row's normals.

    A row's 2M normals depend only on (master_seed, replication, stream),
    so ``sample_fgn_block(group, ...)`` sets each row's key and draws its
    normals once, and every sampler's amplitudes and inverse FFT read
    them.  Sampler i transforms only the leading rows whose replication
    indices lie below ``stops[i]``.  The draws of one group reuse one
    Philox generator and one set of buffers: the blocks a draw returns
    are overwritten by the group's next draw.
    """

    samplers: tuple
    stops: tuple
    _workspace: _Workspace = field(default_factory=_Workspace,
                                   compare=False, repr=False)

    def __post_init__(self):
        sizes = {sampler.embedding_size for sampler in self.samplers}
        if len(sizes) != 1 or len(self.stops) != len(self.samplers):
            raise ValueError(
                f"a sampler group needs one stop per sampler and one "
                f"embedding size, got {len(self.stops)} stops for "
                f"{len(self.samplers)} samplers of sizes {sorted(sizes)}"
            )

    @property
    def embedding_size(self):
        """M, shared by every sampler of the group."""
        return self.samplers[0].embedding_size


def _philox_state(master_seed, replication, stream):
    """Fresh Philox state for the key of one (seed, replication, stream).

    Key [master_seed, (stream << 48) | replication], counter 0, empty
    buffer: the state of a Philox constructed with that key, without the
    OS entropy a constructor reads.  ``sample_fgn_block`` checks both key
    words below 2**63, so distinct triples have distinct keys.
    """
    key = np.array([master_seed, (stream << 48) | replication],
                   dtype=np.uint64)
    return {
        "bit_generator": "Philox",
        "state": {"counter": np.zeros(4, dtype=np.uint64), "key": key},
        "buffer": np.zeros(4, dtype=np.uint64),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }


def sample_fgn_block(sampler, master_seed, replications, stream=STREAM_DIRECT):
    """Draw one fGn series per replication index; shape (len, n).

    ``master_seed`` must lie in [0, 2**63), ``stream`` in [0, 2**15) and
    each replication index in [0, 2**48); anything else is a ValueError.
    Row r is a pure function of (params, master_seed, replications[r],
    stream), independent of how the indices are grouped into blocks.
    Before a row's normals are drawn, the key of one Philox state dict is
    set to that replication's and the generator is reset to the dict.
    Rows go through the draw, the amplitudes and the inverse FFT in
    blocks of about ``_parallel.BLOCK_BYTES`` of normals, which reuse one
    normal and one amplitude buffer; the amplitudes are written into that
    buffer's real and imaginary parts, with no complex temporaries.

    ``sampler`` may also be a ``SamplerGroup``: then each row's normals
    are drawn once for every sampler of the group, and the result is a
    list of blocks, one per sampler, each holding that sampler's leading
    rows below its stop, bit for bit the rows it would draw alone.
    """
    check_seed(master_seed)
    if not 0 <= stream < _STREAM_BOUND:
        raise ValueError(f"stream must lie in [0, 2**15), got {stream}")
    reps = list(replications)
    if reps and not 0 <= min(reps) <= max(reps) < REPLICATION_LIMIT:
        raise ValueError(f"replication indices must lie in [0, 2**48), "
                         f"got {min(reps)}..{max(reps)}")
    if isinstance(sampler, SamplerGroup):
        return _draw(sampler, master_seed, reps, stream)
    alone = SamplerGroup((sampler,), (REPLICATION_LIMIT,))
    return _draw(alone, master_seed, reps, stream)[0]


def _leading_below(reps, stop):
    """How many leading replication indices lie below ``stop``."""
    if not reps or max(reps) < stop:
        return len(reps)
    return next(i for i, rep in enumerate(reps) if rep >= stop)


def _draw(group, master_seed, reps, stream):
    """Each sampler's block of ``sample_fgn_block`` for a checked group."""
    workspace = group._workspace
    bit_generator, generator = workspace.bit_generator, workspace.generator
    state = _philox_state(master_seed, 0, stream)
    key = state["state"]["key"]
    m = group.embedding_size
    root_2m = np.sqrt(2.0 * m)
    # each sampler transforms the leading rows below its stop
    counts = [_leading_below(reps, stop) for stop in group.stops]
    drawn = max(counts)
    block = max(1, min(drawn, _parallel.BLOCK_BYTES // (16 * m)))
    w = workspace.buffer("normals", block, 2 * m)
    # spectral amplitudes: one complex row per replication
    amps = workspace.buffer("amplitudes", block, m + 1, np.complex128)
    # (square-rooted weights, their scaled interior, output block) of each
    # sampler; the blocks come after the two buffers above, so dropping
    # those frees memory below the blocks, not the heap's top, which
    # glibc would hand back to the OS for the statistic kernel's next
    # allocations to fault in again
    plans = []
    for i, (sampler, count) in enumerate(zip(group.samplers, counts)):
        weights = np.sqrt(sampler.spectral_weights)
        out = workspace.buffer(i, count, sampler.params.length)
        plans.append((weights, np.sqrt(float(m)) * weights[1:m], out))
    for lo in range(0, drawn, block):
        wb = w[: min(block, drawn - lo)]
        for i, rep in enumerate(reps[lo : lo + len(wb)]):
            key[1] = (stream << 48) | rep
            bit_generator.state = state
            generator.standard_normal(out=wb[i])
        for weights, scale, out in plans:
            rows = min(len(out) - lo, len(wb))
            if rows <= 0:
                continue
            wr, ab = wb[:rows], amps[:rows]
            ab[:, 0] = root_2m * weights[0] * wr[:, 0]
            ab[:, m] = root_2m * weights[m] * wr[:, 1]
            np.multiply(scale, wr[:, 2 : m + 1], out=ab.real[:, 1:m])
            np.multiply(scale, wr[:, m + 1 :], out=ab.imag[:, 1:m])
            out[lo : lo + rows] = np.fft.irfft(
                ab, 2 * m, axis=-1)[:, : out.shape[1]]
    if reps and max(reps) + 1 >= max(group.stops):
        # no later draw of the group needs them; held while the caller
        # scores these rows, they slowed the statistic kernel's own
        # allocations
        workspace.drop("normals", "amplitudes")
    return [out for _, _, out in plans]


def sample_fgn(sampler, seed):
    """One stationary Gaussian vector with mean 0 and autocovariance gamma.

    Deterministic in (sampler.params, seed); equals replication 0 of
    stream 0 under master seed ``seed``, which must lie in [0, 2**63).
    """
    return sample_fgn_block(sampler, seed, [0])[0]

