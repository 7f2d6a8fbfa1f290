"""Frozen sha256 digests of every artifact `run --svg` and `check` write.

C7 compares two runs of the same code, so it cannot see a trace writer,
reader or plot that changes bytes.  These digests were recorded from the
full-row csv.writer trace codec and the Fraction pixel arithmetic; any
change to a trace.csv, summary.json, report.json or backlog.svg byte on
these runs changes a digest.
"""

from __future__ import annotations

import hashlib

import pytest

from cupgame.cli import main

ARTIFACTS = ("trace.csv", "summary.json", "report.json", "backlog.svg")
FUZZ = ("--steps", "500", "--seed", "0", "--filler", "random:1/2")

# name -> (run arguments, {artifact: sha256})
RUNS = {
    # C3's six fuzz configs at seed 0, a p = 1 greedy game (top_cups(1)), the
    # growth construction, a capped run whose denominator rises mid-run, and
    # C8's two oblivious constructions over their first 300 steps
    "fuzz-n8-p1-greedy": (
        FUZZ + ("--n", "8", "--p", "1", "--emptier", "greedy", "--truncate", "12"),
        {
            "trace.csv": "6c0d2f13693a0b14ae58bc23c5e23df81f8fcaa8bfc7d05c320dcc5fab2bf447",
            "summary.json": "57bae12ef68147ead5a4c23fc144513e958e64dcf32c825e21f0a6ff337fe5ec",
            "report.json": "e0d49095771db573436253f070bf51b8d8b7b7696930a928cac9dcce5ed3ef73",
            "backlog.svg": "e0bbf6d8a8fd2defb7d88931a08cb7dd25f63a79fa6ccc77f52bd968804a32b5",
        },
    ),
    "fuzz-n16-p2-greedy": (
        FUZZ + ("--n", "16", "--p", "2", "--emptier", "greedy", "--truncate", "18"),
        {
            "trace.csv": "c5820f2fc694791fdfa0c3d42c50c2563163cba75816239359d2e590e918a4be",
            "summary.json": "66db2514762224fcd9641bf636c458b8f044830d59183e1b3c4fa1b5b0681824",
            "report.json": "37fda20278d2cdee27e9dc8b438ed416cc0a6d93f495b737a32058741728ca05",
            "backlog.svg": "7bd9d6e66240a45ba5a25f4605651adfa696bd1b6a875fe9424bc74d59a1b8ec",
        },
    ),
    "fuzz-n32-p4-greedy": (
        FUZZ + ("--n", "32", "--p", "4", "--emptier", "greedy", "--truncate", "27"),
        {
            "trace.csv": "3792f80be5edc34e312808c0ee4dcc162fba3700795496b118be1e64e8879847",
            "summary.json": "1c4d3598d4488076d4cd92e80bb593ec93165bff506995ee8a85f5b1fb0fa9e1",
            "report.json": "c157de14a7c1eec00fe73d1436aacf2508297890bd6f837e630f7d095ad59f45",
            "backlog.svg": "338a9cb2a8b57968389e768ebb9d32f4f9b3460d4ee36e3f736fba9a567d2699",
        },
    ),
    "fuzz-n16-p1-greedy": (
        FUZZ + ("--n", "16", "--p", "1", "--emptier", "greedy"),
        {
            "trace.csv": "cabc588a6d8270e36d4f16dd445abd29b67f5992ad052995a4119bfe47cab95f",
            "summary.json": "d1982def7ae58a132dff9c4e16f27e63310bb7590703959024434a69b623418a",
            "report.json": "17082b41ec36ca8b44fd1987465da1175d76515230c9c75dc92c55069916be82",
            "backlog.svg": "039e3fa55509ca8f70983462eaac94506e1e673bf59b26e1a837f4a0320f8b57",
        },
    ),
    "fuzz-n8-p1-smoothed": (
        FUZZ + ("--n", "8", "--p", "1", "--emptier", "smoothed-greedy"),
        {
            "trace.csv": "ab9dbf46a6f41dd3a8128297e589c7f35c62a7d5442d668ee98c181d367a4c62",
            "summary.json": "0b590271ec51a1e806071a6d6a4cb1ba2953a6b044ae88978b681d86fb4a9137",
            "report.json": "70037ecfda61cc9d678ff00ffb5105648640e6a62b5cf3279f8f8ea7ff19f54a",
            "backlog.svg": "06910d4785881111cb72adb6233caf663a2c78ea702237efb4dbfbce020a19a1",
        },
    ),
    "fuzz-n16-p2-smoothed": (
        FUZZ + ("--n", "16", "--p", "2", "--emptier", "smoothed-greedy"),
        {
            "trace.csv": "b4af42a5aaf107eb777ec44a1b5b63bc2457d55657022e520f9d06cf43d23aff",
            "summary.json": "1ce5ee1c5c69c553377e893de4fe5e28715bf6a8d327ab54215f8088e541d558",
            "report.json": "e90f62659233799c010886df843ea9eeddf17a75dad90a8bfb5fe2606a5c5e19",
            "backlog.svg": "cea9d48f4cd0c1fd7beb6880d430d73c00118eed4d2833f14fea591d40bad5b9",
        },
    ),
    "fuzz-n32-p4-smoothed": (
        FUZZ + ("--n", "32", "--p", "4", "--emptier", "smoothed-greedy"),
        {
            "trace.csv": "d5fea3c2b9a840392da3701e528a134141f77206757a0ed2f31a0ecb682f56ba",
            "summary.json": "74685c2656a7068be1e20b4193e8fcf849f78ac2142d1c26c676f3773a46af1d",
            "report.json": "b074e25c58fe7a013d85feb5a62f2a4dec51ab58a49d1ad688e40957feda6f49",
            "backlog.svg": "b13fae7836b46717764577fe87bb65b1b4ccc42f6ca305e568030a85613da7b0",
        },
    ),
    "growth-n16-p4": (
        ("--n", "16", "--p", "4", "--steps", "200", "--filler", "growth", "--emptier", "greedy"),
        {
            "trace.csv": "a0596a97a26d2e266937f1a010d40e25a74d32839439e85782ef4b2504650eb8",
            "summary.json": "42f7d197c0f4e2e72895899bc6c0f7e78067ccad70d2f23296f7f82c8c25b35a",
            "report.json": "410c29e52137ace3b8d58677c63354ae5b126c1a388bc1fa24f9901625d8520e",
            "backlog.svg": "16224af3783b18a6a3f856a289e1fc69b72c02b87dce4d603adb0f9ca716d3b0",
        },
    ),
    "truncate-25/7": (
        ("--n", "8", "--p", "1", "--steps", "300", "--seed", "2", "--filler", "random:1/2",
         "--emptier", "greedy", "--truncate", "25/7"),
        {
            "trace.csv": "9cf5846f9cfc96b512bac176db1fe0e6c2f2a6d51c014a37d90c13e0aaf2a7cb",
            "summary.json": "34aa3d5264c51d008c0adcc54bd7b18443eb51764c3c02337d3c0a9bf0763590",
            "report.json": "076781c208245e3bfa430a4488e081eece172baae2a85b89564a250462345758",
            "backlog.svg": "8d3da3a3833050099bd4e92cdb9bcba518d156ca9037786c1010c594d1b22465",
        },
    ),
    "anchor-swap-n16-p8": (
        ("--n", "16", "--p", "8", "--steps", "300", "--seed", "0",
         "--filler", "anchor-swap:8,64,2", "--emptier", "smoothed-greedy"),
        {
            "trace.csv": "8680da3c5d083f8d927b386a6a91b0bd61c757290db3af420116c799e1d753cc",
            "summary.json": "16b35df24a0a19633f4807d4e85518f30ad2227d3ffabe984517385e6ac1c97f",
            "report.json": "d6f4559a689d3121ec6e9219080b5cb369606e9083324326f64f4dba2b98f8bc",
            "backlog.svg": "090485bfab225a5076290d56b942e980ed79492d2e1ad791701bde72a864aac3",
        },
    ),
    "anti-greedy-n32-p8": (
        ("--n", "32", "--p", "8", "--steps", "300", "--seed", "0",
         "--filler", "anti-greedy:16,3/4,128", "--emptier", "smoothed-greedy"),
        {
            "trace.csv": "a676b9e6b6d48e355b7ed73d4dc89fa5fba9e5071700d97a9f9a1bd682a40d72",
            "summary.json": "90c338e0cd11c420e440b6b664ff74fc37edb9dfdf0ed80dc711d88f80f781cf",
            "report.json": "b547068d78de64bc9c30d1f52300f4122b2cac0c71548433f3c3a3eb4438f875",
            "backlog.svg": "4180cb3de0128ba28ef093729e1e989b8727885f6a898456cfb5b036a059c0fd",
        },
    ),
}


# name -> (run arguments, {artifact: sha256}) for games that no checker covers,
# so `check` exits 2 and there is no report.json: a threshold-blind game with
# p >= 3, whose selection joins the fullest cup to the p - 1 emptiest
RUN_ONLY = {
    "threshold-blind-n16-p4": (
        ("--n", "16", "--p", "4", "--steps", "200", "--seed", "0",
         "--filler", "random:1/2", "--emptier", "threshold-blind"),
        {
            "trace.csv": "5ef7a7064751db89a13d5dc2318534b448ae0a09a3e0c6d9dce7d3bed266fd17",
            "summary.json": "6c649684a84410c199cab14f4516c752e43a4d423eaf7c45e79e27cde736e39e",
        },
    ),
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_run_and_check_write_frozen_bytes(tmp_path, capsys, name):
    argv, digests = RUNS[name]
    assert main(["run", *argv, "--out", str(tmp_path), "--svg"]) == 0
    assert main(["check", str(tmp_path)]) == 0
    capsys.readouterr()
    got = {
        artifact: hashlib.sha256((tmp_path / artifact).read_bytes()).hexdigest()
        for artifact in ARTIFACTS
    }
    assert got == digests


@pytest.mark.parametrize("name", sorted(RUN_ONLY))
def test_run_writes_frozen_bytes(tmp_path, capsys, name):
    argv, digests = RUN_ONLY[name]
    assert main(["run", *argv, "--out", str(tmp_path)]) == 0
    assert main(["check", str(tmp_path)]) == 2
    capsys.readouterr()
    assert not (tmp_path / "report.json").exists()
    got = {
        artifact: hashlib.sha256((tmp_path / artifact).read_bytes()).hexdigest()
        for artifact in digests
    }
    assert got == digests
