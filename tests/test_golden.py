"""Golden stdout: SHA-256 digests of the CLI output for a fixed set of jobs.

A refactor that must not move a number keeps every digest.  The jobs run
in-process through `main`; those of GOLDEN compute their results in mpmath
alone, so their digests do not depend on the numpy build.  They were
recorded with mpmath 1.3.0 on its pure-Python backend; a different mpmath
version may round the last printed digit differently, so the test is
skipped there.
The Monte Carlo jobs also pin the Philox streams and their normal draws,
which numpy does not promise to keep across releases (NEP 19), so they are
skipped under any numpy but the one they were recorded with.
A deliberate change of output replaces the digest of the job it moves,
after a field diff against the previous output shows what moved.
"""
import hashlib
import json

import mpmath as mp
import numpy as np
import pytest

from zonalpd.cli import _verify_output, main
from zonalpd.spaces import make_rng, make_space, sample_uniform_points, save_points
from zonalpd.transform import CoefficientReport

RECORDED_MPMATH = "1.3.0"
RECORDED_NUMPY = "2.4.6"

# (argv, exit code, sha256 of stdout)
GOLDEN = [
    (["coeffs", "--space", "RP2", "--kernel", "riesz-geodesic:s=-0.6",
      "--nmax", "6", "--digits", "20"], 0,
     "86f547f39dde34306c16b57e9653c0722428a4e757ad46753d1bea3a8dfa4e26"),
    (["coeffs", "--space", "HP2", "--kernel", "riesz-chordal:s=0.7",
      "--nmax", "6", "--digits", "20"], 0,
     "aa9019bdb5732e1f4f22155313d6cbed60ee5e2a4bfa7e2ecfbb731709f5fd75"),
    (["coeffs", "--space", "CP2", "--kernel", "log-geodesic",
      "--nmax", "6", "--digits", "20"], 0,
     "d2a6f0bb90543cdb850eedfaed06b6eaed284eddde7c38e0508851627829f41e"),
    (["coeffs", "--space", "S2", "--kernel", "log-chordal",
      "--nmax", "6", "--digits", "20"], 0,
     "d56082d2e4abbaade8745a6d26adb332afdac4073879e77ae1e944db45476e05"),
    (["coeffs", "--space", "RP2", "--kernel", "gauss-geodesic:lambda=2",
      "--nmax", "6", "--digits", "20"], 0,
     "47dc9bdcbc3b0ddbd1aa9cc6825be1a9adc13ae5cc32708989b8fecb9f5f03d9"),
    (["coeffs", "--space", "S4", "--kernel", "gauss-chordal:lambda=0.5",
      "--nmax", "6", "--digits", "20"], 0,
     "e980aa37a1066aab5d70faa024374461173d3e26ac1951f25afff8af53d57193"),
    (["coeffs", "--space", "CP2", "--kernel", "cospow:n=2",
      "--nmax", "4", "--digits", "20", "--format", "csv"], 0,
     "393278549e2cabee663020dd97a5d1b33f4fd29af1dc4505988a189932f7922d"),
    (["coeffs", "--space", "S2",
      "--kernel", "lincomb(2*riesz-chordal:s=0.5+-1*gauss-chordal:lambda=1)",
      "--nmax", "6", "--digits", "20"], 0,
     "4eaca46b9efbe7f6cd4d1bfab6aba83593f93b81ff9ba2f8f2b124f2c9b03e7c"),
    (["classify", "--space", "RP2",
      "--kernel", "product(riesz-chordal:s=0.5,gauss-geodesic:lambda=1)",
      "--nmax", "6", "--digits", "20"], 0,
     "3bd6ecd1f2a83009f8bacae0ed8a164be160c1d26d3800b35a0f687229754b52"),
    (["table1", "--nmax", "4", "--digits", "20"], 0,
     "6af11f80dd482c2faebdf8e7bb981bd5e07fe72c767505703656120d7acdc9aa"),
    (["scan", "--space", "RP2", "--kernel", "riesz-geodesic", "--s-min", "-0.7",
      "--s-max", "-0.5", "--step", "0.1", "--nmax", "4", "--digits", "20"], 0,
     "7c31da0b6fc965f995d954d98ab280e7460c23a4185192cd018ecd850e146123"),
    (["energy", "--space", "CP2", "--kernel", "riesz-chordal:s=1",
      "--digits", "20"], 0,
     "545eed010b8487f79238f96f8938b93a4043a7bb48705ef667c6174f66981aed"),
    (["poisson", "--space", "HP2", "--r", "0.6", "--theta", "0.4"], 0,
     "fd5b9f117f42bd79fd5523e8bda5bdaa1dd45de374bee5cc28db42bbdd55758b"),
    (["coeffs", "--space", "custom:alpha=2.5,beta=0.5,kappa=0.5",
      "--kernel", "gauss-geodesic:lambda=2", "--nmax", "6", "--digits", "20"], 0,
     "e16ba7cc128798fb529b0cbae7369668259dd5937ecf49d430823685f300c613"),
    (["coeffs", "--space", "custom:alpha=2.5,beta=0.5,kappa=0.5",
      "--kernel", "gauss-geodesic:lambda=2", "--nmax", "6", "--digits", "20",
      "--format", "csv"], 0,
     "16723e7e7ce3e73028d3a4118622580d8f005dd3724ed110d29b4c62175749ef"),
    # the CSV of every command, with the argv of its JSON job above
    (["classify", "--space", "RP2",
      "--kernel", "product(riesz-chordal:s=0.5,gauss-geodesic:lambda=1)",
      "--nmax", "6", "--digits", "20", "--format", "csv"], 0,
     "e27f5f491537f004ed34a4614bcc30cff101813c8ecaad03c2fe278be90f90af"),
    (["table1", "--nmax", "4", "--digits", "20", "--format", "csv"], 0,
     "b57a457f5b602645184676a44732f33f063a54eb28a8c7c2bc935bc1a4fa0681"),
    (["scan", "--space", "RP2", "--kernel", "riesz-geodesic", "--s-min", "-0.7",
      "--s-max", "-0.5", "--step", "0.1", "--nmax", "4", "--digits", "20",
      "--format", "csv"], 0,
     "4201b635e0c384f22a78f195fb1777cac52a33b73b65595f54b8cd97898353b3"),
    (["energy", "--space", "CP2", "--kernel", "riesz-chordal:s=1",
      "--digits", "20", "--format", "csv"], 0,
     "65c98e48eebeaf52b67a862dc5afbe9f3fbb86d7ed8ef270f4a8997ac91076f5"),
    (["poisson", "--space", "HP2", "--r", "0.6", "--theta", "0.4", "--format", "csv"], 0,
     "42bf05bbb04ddb00301718f3c0c99b9573d1cc402bfd888afe2f57e9d2c509a0"),
    # exit 2: the exact zeros of jacobi:n=4 below its degree are undecided
    (["classify", "--space", "CP2", "--kernel", "jacobi:n=4", "--nmax", "5",
      "--digits", "15", "--mode", "pd"], 2,
     "c3aa502c26b2b82285ff463c9a867eddd817feaa9b8fe5bd2709d26175e7e889"),
    (["classify", "--space", "CP2", "--kernel", "jacobi:n=4", "--nmax", "5",
      "--digits", "15", "--mode", "pd", "--format", "csv"], 2,
     "9a16159ca212962aacf07806be5e6663b857da83a3987cd5984037e6a68c3ce2"),
    # the circle, alpha = beta = -1/2, where the Poisson series used to divide
    # by alpha + beta + 1 = 0
    (["poisson", "--space", "S1", "--r", "0.5", "--theta", "0.3"], 0,
     "d0220c42f63e0a6e9c313cb607c3e6f1235cd58b5fbefba3f496ddba0f370eac"),
    (["coeffs", "--space", "S1", "--kernel", "riesz-chordal:s=0.5", "--nmax", "4",
      "--digits", "15"], 0,
     "8b3035e9579c4a89ed2f565618dbb73ffe0d87bc9e4581df633938b131f0d605"),
    # the verdict drivers at digits well above their 12-digit first rung (the
    # README's table1 and the benchmark's scan): the bytes of certifying at --digits
    (["table1", "--nmax", "16", "--digits", "50"], 0,
     "b8b9394d63be0f75b3d01592c71cfd79baed57b3852ad22c4bd6ad162159dc08"),
    (["table1", "--nmax", "16", "--digits", "50", "--format", "csv"], 0,
     "95001be54c5ece99843811efce96c89bb380086b5167bd3365f8007b723ee570"),
    (["scan", "--space", "RP2", "--kernel", "riesz-geodesic", "--s-min", "-0.7",
      "--s-max", "-0.5", "--step", "0.1", "--bisect", "0.05", "--nmax", "16",
      "--digits", "20"], 0,
     "3de1cc6727d2e8dd25f98884f3542886f187b6d8e5547d42975488bfde044103"),
    (["scan", "--space", "RP2", "--kernel", "riesz-geodesic", "--s-min", "-0.7",
      "--s-max", "-0.5", "--step", "0.1", "--bisect", "0.05", "--nmax", "16",
      "--digits", "20", "--format", "csv"], 0,
     "7580a45508e7b90c84af1cd01b1e0f02333104b74c6adb61b9834a30fae31f62"),
    # the verdict drivers at --digits below the 12-digit sign rung: the bytes
    # their sign-first ladder gives, which certify at 12 digits first
    (["table1", "--nmax", "10", "--digits", "5"], 0,
     "68fbee23ef35db3c8b6a55b597fd6db5cfd3de8ec93b500f22ec335feea150b4"),
    (["table1", "--nmax", "10", "--digits", "11"], 0,
     "93104d4e89fa951e2f326aa330d9e4b426a8e6ddb2b86ed21e1ebd3e7585ea85"),
    (["table1", "--nmax", "16", "--digits", "8"], 0,
     "ac958d5e11b4f4720b7215685c88a2f376a9fa027a75e1716c1e22c957618d69"),
    (["scan", "--space", "RP2", "--kernel", "riesz-geodesic", "--s-min", "-0.7",
      "--s-max", "-0.5", "--step", "0.1", "--bisect", "0.05", "--nmax", "16",
      "--digits", "5"], 0,
     "92ac0f95a4fbfc33c3c836540b41c9707e0f58501327235bf811187b62ba7446"),
    (["scan", "--space", "RP2", "--kernel", "riesz-geodesic", "--s-min", "-0.7",
      "--s-max", "-0.5", "--step", "0.1", "--bisect", "0.05", "--nmax", "16",
      "--digits", "11"], 0,
     "49117d7ee61f955821fb1bf07ee67133e6caf1f1889f48e30d8b0f7f5df32c6e"),
    (["scan", "--space", "CP2", "--kernel", "riesz-chordal", "--s-min", "-3",
      "--s-max", "-1", "--step", "0.25", "--nmax", "12", "--digits", "6"], 0,
     "25307be51fefc6fd9ced08d012fd68e6494beb8eff0cd55aa700ccfb506a7b79"),
]


# `energy --perturb` with 131077 samples: two batches, the second a partial
# block of 5 rows
_MC = ["--samples", "131077", "--digits", "20"]
GOLDEN_MC = [
    (["energy", "--space", "S2", "--kernel", "jacobi:n=1", "--perturb", "n=1,eps=0.1",
      *_MC], 0,
     "6a968be36bacf70a6444b7a08407be50ec7b65ad327a6bc38cb842c034b44af4"),
    (["energy", "--space", "S2", "--kernel", "jacobi:n=1", "--perturb", "n=1,eps=0.1",
      *_MC, "--format", "csv"], 0,
     "67a3a17eef24e1fa3738c6c1d5aceddc169462d3e67cfeeca78445405d62ef99"),
    (["energy", "--space", "CP2", "--kernel", "gauss-chordal:lambda=1",
      "--perturb", "n=2,eps=0.1", *_MC], 0,
     "882f470ea59e9ea77f0648e4fbbed0c2b086752fcc64e999c7a5c9a9a7b0485c"),
    (["energy", "--space", "CP2", "--kernel", "gauss-chordal:lambda=1",
      "--perturb", "n=2,eps=0.1", *_MC, "--format", "csv"], 0,
     "fd357619f324bd7705c3cb09cf6020f5067a3c1aa07d48e3112c9022dc1cac70"),
]


# `energy --points` on the benchmark's three discrete kernels, each on a
# 40-point file drawn from stream (POINTS_SEED, task); the file is written
# into the test's working directory under a relative name, because the
# config echo prints the path
POINTS_SEED = 29
POINTS_FILES = {"RP2-40.pts": ("RP2", 1), "CP2-40.pts": ("CP2", 2), "HP2-40.pts": ("HP2", 3)}
_POINTS = [("RP2", "gauss-chordal:lambda=1"), ("CP2", "riesz-chordal:s=1"),
           ("HP2", "log-geodesic")]
GOLDEN_POINTS = [
    (["energy", "--space", space, "--kernel", kernel, "--points", f"{space}-40.pts", *fmt], 0,
     digest)
    for (space, kernel), digests in zip(_POINTS, [
        ("2e9d430eb460b7c79a6c5669bbe5a47bb94b3c3a5a002bc7ac13724609576911",
         "6d10d2e773cbc9b029e04823c9554afde808f833be3f1fb709f8a1b764bd2031"),
        ("95a8980408b221324abfa89c37bb410abbb322debc0d19c33d94264418a9cdf5",
         "6d590f34f2bfd033b04e8d8e8e2f2331f1579964c2c9b171fd7c2d4132b14eb4"),
        ("d367a2ff8023c8e07ca51cb056400c0147e4b0f754a57c7a2ab6e927c54c7629",
         "3ac12a75c3fb2a939f0996734a557c66bb701d2d34c1959b1089182acd0f473e"),
    ])
    for fmt, digest in zip(([], ["--format", "csv"]), digests)
]


def _check_digest(argv, code, digest, capsys):
    got = main(list(argv))
    out = capsys.readouterr().out
    assert (got, hashlib.sha256(out.encode()).hexdigest()) == (code, digest)
    # every golden output passes the checks of --verify
    fmt = argv[argv.index("--format") + 1] if "--format" in argv else "json"
    assert _verify_output(argv[0], fmt, out) is None


@pytest.mark.skipif(mp.__version__ != RECORDED_MPMATH,
                    reason=f"digests recorded with mpmath {RECORDED_MPMATH}")
@pytest.mark.parametrize("argv,code,digest", GOLDEN,
                         ids=[f"{a[0]}-{i}" for i, (a, _, _) in enumerate(GOLDEN)])
def test_stdout_digest(argv, code, digest, capsys):
    _check_digest(argv, code, digest, capsys)


@pytest.mark.skipif((mp.__version__, np.__version__) != (RECORDED_MPMATH, RECORDED_NUMPY),
                    reason=f"digests recorded with mpmath {RECORDED_MPMATH} "
                           f"and numpy {RECORDED_NUMPY}")
@pytest.mark.parametrize("argv,code,digest", GOLDEN_MC,
                         ids=[f"{a[2]}-{i}" for i, (a, _, _) in enumerate(GOLDEN_MC)])
def test_mc_stdout_digest(argv, code, digest, capsys):
    _check_digest(argv, code, digest, capsys)


@pytest.mark.skipif((mp.__version__, np.__version__) != (RECORDED_MPMATH, RECORDED_NUMPY),
                    reason=f"digests recorded with mpmath {RECORDED_MPMATH} "
                           f"and numpy {RECORDED_NUMPY}")
@pytest.mark.parametrize("argv,code,digest", GOLDEN_POINTS,
                         ids=[f"{a[2]}-{i}" for i, (a, _, _) in enumerate(GOLDEN_POINTS)])
def test_points_stdout_digest(argv, code, digest, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    name = argv[argv.index("--points") + 1]
    space, task = POINTS_FILES[name]
    sp = make_space(space)
    save_points(name, sp, sample_uniform_points(sp, make_rng(POINTS_SEED, task), 40))
    _check_digest(argv, code, digest, capsys)


def _as_json(argv):
    if "--format" in argv:
        i = argv.index("--format")
        argv = argv[:i] + argv[i + 2:]
    return tuple(argv)


# the coefficient tables of the golden jobs, each once and in JSON
_REPORT_ARGV = sorted({_as_json(a) for a, _, _ in GOLDEN if a[0] in ("coeffs", "classify")})


@pytest.mark.parametrize("argv", _REPORT_ARGV, ids=lambda a: f"{a[0]}-{a[2]}-{a[4]}")
def test_reader_refuses_every_other_sign(argv, capsys):
    """In every golden coefficient table, replacing any one entry's sign by
    any other sign makes the reader refuse the table."""
    main(list(argv))
    doc = json.loads(capsys.readouterr().out)
    CoefficientReport.from_json_dict(doc)
    for entry in doc["entries"]:
        printed = entry["sign"]
        for sign in {"+", "-", "0", "undecided"} - {printed}:
            entry["sign"] = sign
            with pytest.raises(ValueError, match=f"entry {entry['n']}: sign"):
                CoefficientReport.from_json_dict(doc)
        entry["sign"] = printed
