"""Every output pin of the test suite, in one table.

An entry is a name, a small computation and what it returned when recorded:
a sha256 of its bytes or the ``repr`` of its floats.  The ``perfbench`` entries
run a benchmark workload at seed 0 and compare its digest and exit code with
``perfbench/recorded.json``.  ``test_determinism.py`` asserts the whole table at
two machine settings.  ``PYTHONPATH=src python tests/determinism.py`` prints
its ``{name: digest}`` as JSON, so that two machines can be compared with diff.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import math
import sys
import tempfile
from pathlib import Path
from typing import Any, Callable, Mapping, NamedTuple

import numpy as np

import chaoslab.fbm
import chaoslab.limits
import chaoslab.rng
from chaoslab.cli import main
from chaoslab.experiments import mixture_comparison, riemann_comparison
from chaoslab.fbm import FbmGrid, abs_rho_power_sum, embedding_spectrum, sample_paths, signed_rho_power_sum
from chaoslab.identities import run_identity_suite
from chaoslab.limits import (
    MixtureSpec, berry_esseen_check, brownian_example_run, chaos2_fourth_moment_exact, sample_mixture_limit
)
from chaoslab.variations import a_n_statistic, sigma_hq
from chaoslab.weights import WeightFunction

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
COS = WeightFunction.cosine(1.0, 1.0)


class Pin(NamedTuple):
    compute: Callable[[], object]
    recorded: object


PINS: dict[str, Pin] = {}


def _enter(label: str, compute: Callable, recorded: dict) -> None:
    """Enter ``compute(*args)`` as ``label(args)`` for each ``args: value`` of ``recorded``."""
    for args, value in recorded.items():
        args = args if isinstance(args, tuple) else (args,)
        PINS[f"{label}({', '.join(map(repr, args))})"] = Pin(functools.partial(compute, *args), value)


def sha256(*parts) -> str:
    """sha256 of the float64 bytes of each array (or list of floats), in order."""
    digest = hashlib.sha256()
    for part in parts:
        digest.update(np.ascontiguousarray(part, dtype=float).tobytes())
    return digest.hexdigest()


def ulp_neighbours(a: float, k: int = 64) -> np.ndarray:
    """The positive ``a`` and its ``k`` float64 neighbours on each side."""
    return (np.float64(a).view(np.int64) + np.arange(-k, k + 1)).view(np.float64)



def without_meta(payload: Any) -> Any:
    """Recursively drop ``meta`` blocks, leaving only the deterministic content.

    Repeating a run with the same config and seed must reproduce this
    projection byte-for-byte (timestamps and runtimes live only in ``meta``).
    """
    if isinstance(payload, Mapping):
        return {k: without_meta(v) for k, v in payload.items() if k != "meta"}
    if isinstance(payload, (list, tuple)):
        return [without_meta(v) for v in payload]
    return payload

# -- fBm: the rho^q series, the circulant plan and sampled paths ---------------


def _rho_power_sums(q, H):
    return tuple(repr(v) for v in (signed_rho_power_sum(H, q, 1e-10), abs_rho_power_sum(H, q, 1e-10)))


# float reprs of (signed, absolute) rho^q series at tol 1e-10, recorded while
# each lag raised its own three powers: perfbench's sigma points, and q = 3
# at H = 0.3, where rho changes sign and the two series differ
_enter("rho_power_sums", _rho_power_sums, {
    (2, 0.3): ("1.1251955053270797", "1.1251955053270797"),
    (2, 0.4): ("1.038803020130259", "1.038803020130259"),
    (2, 0.47): ("1.0042345141748998", "1.0042345141748998"),
    (3, 0.5): ("1.0", "1.0"),
    (3, 0.62): ("1.014939104322052", "1.014939104322052"),
    (4, 0.7): ("1.0258136324829423", "1.0258136324829423"),
    (3, 0.3): ("0.9713107840154244", "1.0286892159845755"),
})


def embedding_spectra(n):
    """``{H: embedding_spectrum(FbmGrid(H, n))}`` over H = 0.05, 0.3, 0.5, 0.8, 0.99."""
    return {H: embedding_spectrum(FbmGrid(H, n)) for H in (0.05, 0.3, 0.5, 0.8, 0.99)}


def circulant_transforms(n):
    """The circulant plan's transform of default_rng(n) normals at H = 0.3, then
    0.8: two full slabs through the same per-thread buffer, then a 3-row slab."""
    rng_local = np.random.default_rng(n)
    outs = []
    for H in (0.3, 0.8):
        transform = chaoslab.fbm._circulant(FbmGrid(H, n)).transform
        for height in (chaoslab.rng.slab_rows(4 * n),) * 2 + (3,):
            outs.append(transform(rng_local.standard_normal((height, 4 * n))))
    return outs


# Each pin was recorded while the spectrum equalled, bit for bit, the real part
# of scipy.fft.fft of the embedding row, and the transform the same transform
# with scipy.fft.ifft(..., workers=1, overwrite_x=True) in place of numpy's.
_enter("embedding_spectra", lambda n: sha256(*embedding_spectra(n).values()), {
    1: "bf9fc499d24097ab0657e7d14054e3f7f084a7808a66fd02d88cecc6c27377a5",
    2: "da37b048a7b73820cce4d96b5fd65db350f2b0276d4ad65917a4a2f39cd442b9",
    7: "91d61e3494dc56935fd85fd91d36d479228690fdc6610388bd72a44e8c9f189c",
    64: "8f14c1ad6cef67a69a78433bffd0ffd942eb7ca6628c46b9b203b37ff9c6c66b",
    513: "b5118cb5948571908fe6b3626f7795f038140e5527778a9602fbaa50644b0a21",
    4096: "e88dbf30d6c5f98bc74ccc5a2c68a37b298feacb1924eb26b93d90a04c691ba7",
    5000: "66107eda6eacffc61b755d815908967e720dfd6cb5c3df24850f1df20f065124",
})
_enter("circulant_transforms", lambda n: sha256(*circulant_transforms(n)), {
    1: "acd3260590d881ab21ba77cd1ccdb0ca943e49412781e9389740a07fea7c6b6a",
    3: "610046f79b61f6e3b1dd3b4d09cd6f6bb2d8376951d115c42d5ba07b7419a0e7",
    1000: "27c563e5a021d7e4b9e0a84b85baff8f526572afef81c10f5984cc888c9fa241",
    4096: "6bea72ddb4e661fcfbbf28746bcd0959cab3414fb6a82b9a74868c89e2bad3be",
})


def _paths(H, n, m, seed):
    batch = sample_paths(FbmGrid(H, n), m, seed)
    return sha256(batch.increments, batch.paths)


# sha256 of sample_paths increments then levels.  (0.3, 16, 1537): recorded
# while the circulant plan was still chosen there by name.  (0.3, 4096, 1029):
# recorded while every slab was 256 rows.  769 paths: recorded while a diagonal
# Cholesky factor still went through a one-thread GEMM; the white-noise plan's
# elementwise scale keeps them.  At n = 1 every H gives N(0, 1) * 1, so
# (0.3, 1) and (0.5, 1) agree.  301 paths: both plans at small, medium and
# large n, recorded at one and two BLAS threads.
_enter("sample_paths", _paths, {
    (0.3, 16, 1537, 9): "b438ca11f8cf3ebb8d2c9335c47c593f329437f3c1bc3570afa50da7f20101d1",
    (0.3, 4096, 1029, 9): "839bfa91b9a1717fbd7eabb6add9c111a1db8986d2b11133311466e24cfefa81",
    (0.5, 1, 769, 9): "b4c6e7ca84e18202ff9f99139b12e777b4d24d9fb847b0c163694c4b1427ed30",
    (0.5, 64, 769, 9): "220cde2137bcfe822a8457231553ed1d8db7b6a25672ddcc438fb8e3e0c7f02c",
    (0.5, 512, 769, 9): "e6574036597bbaaca8f66aa7cc54bbb6266fe4b01d4a8888c044b361d769f5ec",
    (0.3, 1, 769, 9): "b4c6e7ca84e18202ff9f99139b12e777b4d24d9fb847b0c163694c4b1427ed30",
    (0.1, 3, 301, 9): "9568c7de115b9701eb9399abc9eb1d5edacb3916289f9270422b54b1d1c7668b",
    (0.5, 3, 301, 9): "f88f24bc25c648652abe0050080781ab9b2b7fe02dfaa045f51419ce07740d53",
    (0.8, 3, 301, 9): "0d831d90dc3abbec3d9d34924c487b5a9cf7e2c8d74ade09ea0e811ea80acb08",
    (0.1, 64, 301, 9): "79d9c94fbca8534ad8c11eea5ba2c052449e1772fae422cc609a2fa0c4fda6d8",
    (0.5, 64, 301, 9): "1847ad19e3f147fd6a1ec14667c87ce095456aecb4867b8a53781731ec086da5",
    (0.8, 64, 301, 9): "8f4436933d8894885ed18def3200789f6605a76a05f4581e609075748d21eb5c",
    (0.1, 1000, 301, 9): "fd3099ed66de8a30d62a0e1282a6ec85e67bfd983013540bd8a38ba99aefd166",
    (0.5, 1000, 301, 9): "2fbf1cb253ddd96af16a43b1242286bceadd584796526a5eca366724f895d37e",
    (0.8, 1000, 301, 9): "d546ed24684dde3970c66cd4bfdecaf09c642c75311f0817c0313129f77c6ce3",
})


def a_n_fft(n):
    """A_n of three paths at H = 0.45, by its FFT autocorrelation."""
    return a_n_statistic(sample_paths(FbmGrid(0.45, n), 3, seed=5), 2, COS)


# recorded while A_n equalled, bit for bit, the same sum with scipy.fft's
# next_fast_len, rfft and irfft in place of numpy's
_enter("a_n_fft", lambda n: sha256(a_n_fft(n)), {
    100: "46ab8fbbc576edca5af41dbeb41efbe893cc2c5b23d74ec59f2c1091fb99ac2a",
    1000: "c23d6c21e2c62b2bea09276d9714ee3655ca87ce3f68801189ac1d6182b38629",
    4096: "c5c78270821e4804f8382bd8b6d1e6773e0d63bcd288366c542b37925b1df60b",
    5000: "3ac397947b7cf6feedfa7561e60b1dabfc4d1ed7eb2eabed26dee0d99910c244",
})


# -- the exact fourth moment and the limit laws --------------------------------


def _chaos2(H, n):
    return tuple(repr(v) for v in chaos2_fourth_moment_exact(H, n))


# float reprs of (variance, fourth_moment, normalized_m4), recorded from the
# GEMM and blocked-FFT routes that the recursion replaced
_enter("chaos2_fourth_moment_exact", _chaos2, {
    (0.3, 2048): ("2.2502499462069827", "15.23032463413277", "3.0077908957156967"),
    (0.3, 4097): ("2.2503204863543353", "15.211549013790663", "3.003894621766619"),
    (0.62, 4160): ("2.265188394157056", "15.433062819255747", "3.0077620010075488"),
    # an uncompensated recursion is 12 ulps off in tr(M^4) here, which moves normalized_m4
    (0.218356, 2048): ("2.4301596671878065", "17.769310594808974", "3.008852935829677"),
    # M is the identity at H = 1/2, where these were recorded from the GEMM route
    (0.5, 1): ("2.0", "60.0", "15.0"),
    (0.5, 2): ("2.0", "36.0", "9.0"),
    (0.5, 7): ("2.0", "18.857142857142858", "4.714285714285714"),
    (0.5, 64): ("2.0", "12.75", "3.1875"),
    (0.5, 255): ("2.0", "12.188235294117646", "3.0470588235294116"),
    (0.5, 256): ("2.0", "12.1875", "3.046875"),
    (0.5, 257): ("2.0", "12.186770428015564", "3.046692607003891"),
    (0.5, 1000): ("2.0", "12.048", "3.012"),
    (0.5, 3001): ("2.0", "12.015994668443852", "3.003998667110963"),
    (0.5, 4096): ("2.0", "12.01171875", "3.0029296875"),
})


def normal_cdf_points():
    """Random points, the branch switches of |a| sqrt(1/2) = sqrt(1/2), 1 and 8
    and the point where erfc underflows to 0, with 64 ulps on each side, and
    the special values."""
    rng_local = np.random.default_rng(5)
    sqrt1_2 = chaoslab.limits._SQRT1_2
    edges = [1.0, 1.0 / sqrt1_2, 8.0 / sqrt1_2, math.sqrt(2.0 * chaoslab.limits._MAXLOG)]
    near = np.concatenate([ulp_neighbours(edge) for edge in edges])
    return np.concatenate([
        rng_local.normal(0.0, 2.0, 1_000_000),
        rng_local.uniform(-40.0, 40.0, 1_000_000),
        near,
        -near,
        np.linspace(-38.0, -37.4, 10_001),
        [0.0, -0.0, np.inf, -np.inf, np.nan],
    ])


def _brownian(n, m, seed, resolution):
    arrays = brownian_example_run(n, m, seed, resolution)[1]
    return sha256(*(arrays[key] for key in ("f", "inner", "s2", "reference")))


def _mixture_limit_with_shift(H, m, seed):
    spec = MixtureSpec(2, H, COS, sigma_hq(H, 2).sigma, n_fine=1024, shift_coefficient=0.25)
    sample = sample_mixture_limit(spec, m, seed)
    return sha256(sample.values, sample.conditional_variances, sample.shifts)


# recorded while it equalled scipy.special.ndtr (Cephes) bit for bit
_enter("normal_cdf", lambda: sha256(chaoslab.limits._normal_cdf(normal_cdf_points())), {
    (): "e8c816ced4ea38d0a92d9d57e81831a18fc6d58699db4d34bed87bbf9d6d14e2",
})
# f, inner, s2 and reference.  (4, 700, 2, 1024): recorded before the replica
# loop moved onto rng.map_slabs; m = 700 ends in a partial block and a partial
# slab.  (16, 64, 5, 2048): recorded at one and two BLAS threads.
_enter("brownian_example_run", _brownian, {
    (4, 700, 2, 1024): "f422909eaaf64aea8f2a60a213ef4a0980c90950b47dc2424b15ae53b8c23109",
    (16, 64, 5, 2048): "678056d17c22aeeb92c74a95aa123cf4481c26280f073f55538cb35c22c925f5",
})
# values, conditional variances, shifts at q = 2, cos, n_fine 1024 and shift
# coefficient 1/4; recorded while the fBm path loop was serial and reduced
# 2048-path batches
_enter("sample_mixture_limit_with_shift", _mixture_limit_with_shift, {
    (0.25, 1500, 6): "882ee0887b4ff7b05b7eda6a58c90038397bcbf455ffc87bab1c6655290b738f",
})
# the statistic as float64 bytes; re-recorded when the circulant plan replaced
# Cholesky sampling at n <= 512
_enter("berry_esseen_check", lambda *args: sha256([berry_esseen_check(*args).statistic]), {
    (0.3, 64, 3000, 5): "f24e0852a9ce3aa94bdc76b1a1d5f5a294afd219e84dd6c2183b76468df93572",
})
# the statistic's repr, recorded at one and two BLAS threads
_enter("berry_esseen_check_repr", lambda *args: repr(berry_esseen_check(*args).statistic), {
    (0.5, 256, 4096, 3): "0.023860993328027935",
})


# -- experiments, the identity suite and the CLI's output bytes -----------------


def _mixture_comparison(H):
    _, arrays = mixture_comparison(2, H, COS, 256, 2100, seed=4, n_fine=1024)
    return sha256(*(arrays[key] for key in sorted(arrays)))


def _riemann_distances(q, H, sizes, m, seed):
    extras = riemann_comparison(q, H, COS, sizes, m, seed)[0].extras
    return sha256(list(extras["distances"].values()), list(extras["norm_ratio_gaps"].values()))


def _identity_suite(seed, instances):
    payload = without_meta(run_identity_suite(seed, instances).to_dict())
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def _cli(argv, config):
    """sha256 of report.json without meta, version and config.out, then
    samples.csv and paths.npy where the subcommand writes them."""
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        out, config_path = Path(tmp) / "out", Path(tmp) / "config.json"
        config_path.write_text(config, encoding="utf-8")
        assert main([*argv.split(), "--config", str(config_path), "--out", str(out)]) == 0
        payload = without_meta(json.loads((out / "report.json").read_text(encoding="utf-8")))
        payload.pop("version")
        payload["config"].pop("out")
        digest = hashlib.sha256(json.dumps(payload, sort_keys=True, separators=(",", ":")).encode())
        for name in ("samples.csv", "paths.npy"):
            if (out / name).exists():
                digest.update((out / name).read_bytes())
    return digest.hexdigest()


# the arrays of mixture_comparison(2, H, cos, 256, 2100, seed=4, n_fine=1024)
# in key order, recorded while the fBm path loop was serial and reduced
# 2048-path batches; 2100 paths cross a 2048-path boundary and end mid-slab
_enter("mixture_comparison", _mixture_comparison, {
    0.3: "efde69a6d2b012c7a87744be956832e39ac70c2896ea038a6f40569b81643fd6",
    0.25: "487195354bc909c3fab34b4f6b60df2483548f6c23b048f3bd732010544699fe",
})
# distances then norm-ratio gaps, at the cos weight
_enter("riemann_comparison", _riemann_distances, {
    (2, 0.2, (64, 256), 2100, 8): "f7a7834b73e74579a8b7fcd9290c416e1f29c9b3303f106e60927cd5b279e426",
})
# sha256 of the suite report without meta, recorded before the tensor
# arithmetic moved onto numpy object arrays
_enter("run_identity_suite", _identity_suite, {
    (0, 120): "95f7d302eec7db9303a17f386915f9e52612458eaa5f62b29dc3872743e88c3d",
    (5, 240): "4edc7abcda504d9f5a8714f6573eb78f6ee34d79ae3a733469bbdb4c9c106559",
})
# (argv, config file) at tiny sizes, recorded before the per-replica tables
# were written by one column helper: a change of these bytes is a change of
# output.  The fbm pin was re-recorded when --method went: the same paths, with
# "method": "auto" in place of "circulant" in the config block.
_enter("chaoslab", _cli, {
    ("limit-test --q 2 --H 0.3 --n 256 --m 64 --weight cos:1,1 --seed 3",
     '{"n_fine": 1024, "variance_tolerance": 0.5}'):
        "1831ccaa37243ddb58bbc22295cd080ad5e98fa37535c0da36ccfb591903abe1",
    ("example-brownian --n 8 --m 64 --seed 2", '{"resolution": 512}'):
        "78f3534a5219ad8045b9be7df1b158df8e0b594dbb147fe5f4b1b63301567d8d",
    ("identities --seed 3", '{"instances": 12}'):
        "15efdb2759f46dbd91f175befeea5df0b9040879cc2d65a81b58a7e977d34624",
    ("fbm --H 0.3 --n 16 --m 5 --seed 1", "{}"):
        "798d2d01087c555cd63f813e0f773cbc2939e85a9b1d204588f46a96aaae39be",
    # the exact decomposition's components per path, and the constants table
    # (which writes no samples.csv)
    ("variation --q 2 --H 0.3 --n 16 --m 5 --weight cos:1,1 --decompose --seed 1", "{}"):
        "3136cbe54901d0be178770f0b2fe6bd2558c101be7c5d449646eaccb6133ff1e",
    ("constants --q 3 --H 0.3", "{}"):
        "f1e7e75fa7e5613e244c7c719ae799f1409b904d1edf18cbc113e1b9fd420c3e",
    # recorded while each subcommand still built its own rows: q = 1 leaves
    # the renormalized column empty, berry-esseen's table has no index column
    # and mixes ints with floats, and n = 1 writes the increment std as 0.0
    ("variation --q 1 --H 0.3 --n 16 --m 5 --seed 1", "{}"):
        "ce6c8d154e280ca0f18aa1e059ab14905a275926d1098e045ab648bd2dd450c6",
    ("berry-esseen --H 0.3 --n 16,32 --m 64 --seed 2", "{}"):
        "88e099b9cdecdcc31ee8e948092d462bb2bf01017b424fdd692b711b516ebbed",
    ("fbm --H 0.3 --n 1 --m 5 --seed 1", "{}"):
        "c4689544e1eed56311ff5d637066b3d715d50e3cb7a26562ae6a34119d07dac3",
    # the report and table were recorded while paths went to an FBMPATH1 file;
    # the paths.npy bytes appended are np.save of sample_paths' levels
    ("fbm --H 0.3 --n 16 --m 5 --seed 1", '{"export_paths": true}'):
        "db657655434a471b2d92b92c556331b47d39577ea75b8648ecd596034ad09dc0",
})


# -- the benchmark's four workloads ---------------------------------------------


def _workload(name):
    """perfbench's workload ``name`` at seed 0 and full size: (digest, exit code)."""
    if str(PERFBENCH) not in sys.path:
        sys.path.insert(0, str(PERFBENCH))
    import workloads

    with tempfile.TemporaryDirectory() as tmp:
        workload = workloads.build(name, 0, "full", Path(tmp))
        outcome = workload.check(workload.run())
    return (outcome.digest, outcome.exit_code)


_RECORDED_WORKLOADS = json.loads((PERFBENCH / "recorded.json").read_text(encoding="utf-8"))["workloads"]
_enter("perfbench", _workload, {
    name: (workload["seeds"]["0"]["digest"], workload["seeds"]["0"]["exit_code"])
    for name, workload in _RECORDED_WORKLOADS.items()
})


if __name__ == "__main__":
    print(json.dumps({name: pin.compute() for name, pin in PINS.items()}, indent=1))
