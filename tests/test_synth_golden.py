"""Pinned sha256 of every file ``generate_corpus`` writes for one small spec.

A change to how synth draws its random numbers must leave these corpora
byte-identical. The jitter = 0 cases matter: a zero-width step draw still
consumes generator output and can be rejected and redrawn. ``penair synth``
must write the same bytes whether it generates in this process or in forked
workers. The module does not import pytest, so each test, called with a
``pathlib.Path`` of an empty directory, also runs under an interpreter that
has no pytest.
"""

import hashlib
import io
from contextlib import redirect_stderr, redirect_stdout

from penair import SynthSpecError, cli, file_seed, generate_corpus, load_corpus_spec, synth

from fresh import usable_cpus

SPEC = """
[corpus]
period = {period}
jitter = {jitter}
database = golden
task = copy

[cohort control]
files = 2
surface_strokes = 1..4
surface_ticks = 20..70
air_ticks = 4..25
gaps = 0..2
gap_ticks = 40..90

[cohort patient]
files = 2
surface_strokes = 2..5
surface_ticks = 15..50
air_ticks = 6..30
gaps = 1..3
gap_ticks = 30..120
"""

MANIFEST = "4b908ebfc4cea495bb73d5460351f4d8d7d91b100676dce6a24f2ed3e0d26c7e"

# (period, jitter, master seed) -> sha256 of each written file
GOLDEN = {
    (3, 0, 1): {
        "control_000.svc": "7d26ea4d482b274847f2c9e18bfd55ae8ab2e8b4a7d9ec358588134217f6b28f",
        "control_001.svc": "5e4cf5eddaa41f48f22c47b5cdbfa94882c228ee71b490a6a030780d820e934e",
        "patient_000.svc": "4244a787d2f515f5818fde7512598ab773294f2e18c224d6d8c7d26bfe14cd60",
        "patient_001.svc": "e9660ef38d398a0d3da38b54f598479e13fe87e147f52145edc00acd8f00ac77",
        "manifest.csv": MANIFEST,
    },
    (3, 0, 7): {
        "control_000.svc": "96cccdebbfc583853c51bd241b0ba5af3a6b0a097390fa24a213d9a04887ead4",
        "control_001.svc": "924e1f461c868bdb3f7b5154a83cd0a9ba82e3262a3bf9b841bcafd165069c16",
        "patient_000.svc": "99a6c374ae1ad4ab2136b3df8c6badf13fa03cb2d5040ca58dd1cf3963bef535",
        "patient_001.svc": "80fcda20183b15ad4902eab0770fcabf73ea16ed13470bf75acf2686ab5f8ca4",
        "manifest.csv": MANIFEST,
    },
    (4, 2, 1): {
        "control_000.svc": "c1b6f5916bd6a4b7ffa398feb2810cc57bd2a63e0cab64f8c4e692631e6e21bf",
        "control_001.svc": "72ded55b800d2cdeec0ca7e4f43845b4877899774799b0692c83bc76a200d847",
        "patient_000.svc": "1686919994f1a9cc6d1aadb7b3148191c5187b608b19760e8a28941677949f2f",
        "patient_001.svc": "0bf71ccab6f74c61d0288a5b44e9f6057757867aca52d576f94dde3d0223c1b8",
        "manifest.csv": MANIFEST,
    },
    (4, 2, 7): {
        "control_000.svc": "cf39a8dbfa3227837d576009a97d3473b6d08e69e4849b76021f61c172a5a472",
        "control_001.svc": "72dcd02e35dfebf371982663c58d8d6a5c2bbeeb967422baf38ac3529b839b13",
        "patient_000.svc": "c31a18f647030594e63905e36484feb45c0595d1765cbc8ae7d94024583589bd",
        "patient_001.svc": "083023b5c79347c30c8f79c61ae3738dc0b2dd58d2c99ab1290a7b5983774991",
        "manifest.csv": MANIFEST,
    },
}


def digests(out):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}


def test_corpus_digests(tmp_path):
    for (period, jitter, seed), expected in GOLDEN.items():
        out = tmp_path / f"p{period}_j{jitter}_s{seed}"
        generate_corpus(load_corpus_spec(SPEC.format(period=period, jitter=jitter)), out, seed)
        assert digests(out) == expected, (period, jitter, seed)


def run_synth(spec_path, seed, out):
    """cli.main's exit code, stdout and stderr for one synth command line."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = cli.main(["synth", "--spec", str(spec_path), "--seed", str(seed),
                         "--out", str(out)])
    return code, stdout.getvalue(), stderr.getvalue()


def test_cli_writes_the_same_corpus_at_any_worker_count(tmp_path):
    spec_path = tmp_path / "spec.ini"
    for (period, jitter, seed), expected in GOLDEN.items():
        spec_path.write_text(SPEC.format(period=period, jitter=jitter), encoding="utf-8")
        for workers in (None, 1, 2, 3):
            out = tmp_path / f"p{period}_j{jitter}_s{seed}_w{workers}"
            with usable_cpus(workers):
                assert run_synth(spec_path, seed, out) == (0, f"{out / 'manifest.csv'}\n", "")
            assert digests(out) == expected, (period, jitter, seed, workers)


def test_cli_refuses_a_corpus_when_one_member_fails(tmp_path):
    # control_001 is the first member of worker 1's share at two and at three
    # workers. Refused alone, or with patient_000 of worker 0's share, which
    # comes later in corpus order, its error is the one reported, and nothing
    # is written
    first = file_seed(1, "control:1:session")
    real = synth.generate_session
    spec_path = tmp_path / "spec.ini"
    spec_path.write_text(SPEC.format(period=3, jitter=0), encoding="utf-8")
    message = f"error: control_001.svc: seed {first}: refused\n"
    for refused in ({first}, {first, file_seed(1, "patient:0:session")}):

        def refuse(spec):
            if spec.seed in refused:
                raise SynthSpecError(f"seed {spec.seed}: refused")
            return real(spec)

        synth.generate_session = refuse
        try:
            for workers in (1, 2, 3):
                out = tmp_path / f"w{workers}"
                with usable_cpus(workers):
                    assert run_synth(spec_path, 1, out) == (2, "", message)
                assert not out.exists(), workers
        finally:
            synth.generate_session = real
