"""Golden output: the sha256 of seeded CLI output is pinned, so a change that
alters the exported bytes fails here even when it alters them the same way
on every run."""
import argparse
import hashlib
import os
import subprocess
import sys

import pytest

import untrusted_noma
from untrusted_noma.cli import build_parser, main


def _sha256(data: str | bytes) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


GOLDEN = [
    ("sweep --users 4 --seed 11",
     "53ca7474a17d10d16ef7eb967b6e3793327b039fc1ebd0ee6aba83faa88fa547"),
    ("sweep --users 1 --seed 3",
     "8ce8493e3be38ab52dac00e884200b771d70ba35807dac1eefaf7c8b77a7cf74"),
    ("sweep --users 2 --seed 3 --zeta 1",
     "64e0b89d603fdf69f9a33ee1438cdbc7e0686323430d012c3a483d589a357ac3"),
    ("simulate --users 3 --trials 20 --seed 7",
     "ccbe0c9e42418c5092e84be1a905e0e105237bec806a8bd29a52bbe952d15972"),
    ("sweep --users 12 --seed 1 --scheme policy-LPWU,policy-LPSU",
     "e4f505e62f7d9b559df0d9027c8af2e112f8af72127368d90767d4b598e09b6a"),
    ("eval --users 3 --beta -0.3 --seed 42",
     "081e10749dec5c350b2875988500327d4c5b25bf5e4a986ce34121dec39e4123"),
    ("eval --users 2 --beta 0.1 --seed 7 --order-id 2",
     "2e677106dba2629b1bf258dffac247202a8216c98aa8663cb2cc709a760e8ca0"),
    ("filter-secure --users 4",
     "21ff31d622df02b18651656553771131607e5f47092f9901c7c889b41baa1e12"),
    ("count --users 4",
     "019b8cb7c8ddc147fe1b4ed4a143c6dd9541c12924190cda8d71aa4636a447ce"),
    ("simulate --users 2 --trials 150 --seed 9",
     "d078ef7b2071a50da1e6e6bb62ead725d45cec7818de9fa477a6683539223fe3"),
    ("simulate --users 9 --trials 120 --seed 3 --scheme policy-LPWU,policy-LPSU",
     "27825bd48164e27524f69c31285a55189de46704916b8a13a40b39b43b84eea7"),
    ("policy --users 4 --beta -0.5",
     "44e92233dba940b47780071e45720684d976d62441057ec6362e8254e23c2dc4"),
    ("policy --users 4 --beta 0.5",
     "1d26728ba07c619d831a3876afb079921a11fdb81aa8ee0038b9a6d1ba7caff9"),
    ("gain --users 2,3,4 --trials 60 --seed 20250810",
     "3fc6d7c6b7f31c1ff5f855e08ca70edf096c63b50e6ec26f5ad4e8359d0fc5cc"),
]


@pytest.mark.parametrize("argv, digest", GOLDEN)
def test_stdout_digest(capsys, argv, digest):
    assert main(argv.split()) == 0
    assert _sha256(capsys.readouterr().out) == digest


def test_simulate_stdout_and_json_file_digests(capsys, tmp_path):
    path = tmp_path / "run.json"
    argv = ["simulate", "--users", "4", "--trials", "3", "--seed", "5"]
    assert main(argv + ["--format", "json", "--output", str(path)]) == 0
    out = capsys.readouterr().out
    assert _sha256(out) == "6de961d2871a704ad777d26111d05937c4cad3fa7a06f39ec224289e685edf2d"
    assert _sha256(path.read_bytes()) == (
        "50ab117204d07cfc3f7f5a3ff16e894d3c867db5ec5b8573568f1e6ad2586655"
    )


def test_every_subcommand_is_pinned():
    """A subcommand added without an entry in GOLDEN fails here."""
    (subparsers,) = [
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    pinned = {argv.split()[0] for argv, _ in GOLDEN}
    assert set(subparsers.choices) - pinned == set()


# (users, lines read, first line, sha256 of the lines read): the heads of
# listings too long to print whole; from N = 7 the ids exceed int64
FILTER_SECURE_HEADS = [
    (5, 1_000_000, "6858475320",
     "6cc840448ddb483b2f6198a8bc78f7e8aebf5e86fdf0dd10522a3d9264916afb"),
    (7, 10_000, "14309108100517354092465840",
     "fb9a67de8f06b4c329417e67ea3cdefa46fb63d6753b910923f101d73a8bb570"),
    (8, 1, "1024361230926444808657938195835739520",
     "275b1cc2de74b01d28a6edf13c4bb2b4931e27a8fa4b84aec85dc762dfe65d65"),
]


@pytest.mark.parametrize("users, lines, first, digest", FILTER_SECURE_HEADS)
def test_filter_secure_head_digest(users, lines, first, digest):
    """The first lines of ``filter-secure --allow-large-n``, read from a child
    process whose stdout is then closed."""
    src = os.path.dirname(os.path.dirname(untrusted_noma.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    argv = ["filter-secure", "--users", str(users), "--allow-large-n"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "untrusted_noma.cli", *argv], stdout=subprocess.PIPE, env=env
    )
    head = b"".join(proc.stdout.readline() for _ in range(lines))
    proc.stdout.close()
    assert proc.wait(timeout=60) == 0
    assert head.split(b"\n", 1)[0].decode() == first
    assert head.count(b"\n") == lines
    assert _sha256(head) == digest


@pytest.mark.slow
def test_full_five_user_listing_digest():
    """All 29,638,368 lines of ``filter-secure --users 5``, hashed as they
    arrive from a child process (about 10 s)."""
    src = os.path.dirname(os.path.dirname(untrusted_noma.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    argv = ["filter-secure", "--users", "5", "--allow-large-n"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "untrusted_noma.cli", *argv], stdout=subprocess.PIPE, env=env
    )
    digest, lines = hashlib.sha256(), 0
    with proc.stdout:
        for chunk in iter(lambda: proc.stdout.read(1 << 20), b""):
            digest.update(chunk)
            lines += chunk.count(b"\n")
    assert proc.wait(timeout=60) == 0
    assert lines == 29_638_368
    assert digest.hexdigest() == "b38be8d0b4a2d221c6f12b66dda6cf6ceb1bbcb34ebb479fef51eaeff277f40e"
