"""Byte-level goldens of the command-line interface.

Each run below goes through ``cli.main`` in-process on a shipped config;
the exit code and the sha256 of every file it writes, ``manifest.json``
included, must match the table.  A change that moves any of these bytes
updates the table and states the drift, with its size, in CHANGES.md.

The digests were recorded with Python 3.11, numpy 2.4 and scipy 1.17 on
x86-64; another libm or numpy build may round a last digit differently.
"""

import contextlib
import hashlib
import io
from pathlib import Path

import pytest

from berklab.cli import main

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

GOLDEN = {
    ("three_equilibria", "solve"): (0, {
        "equilibria.json":
            "d818f6ecf93c3a9381fef3d87e049b435c0a1ca265d02ecc12f988bc09c91319",
        "manifest.json":
            "abe3127559dd5488631e53f6d03a554ff8ea1b4cc259e9366dde220618e7ada2",
        "psi_curve.csv":
            "5980049570702314f29e8a76974692f113fd81b3e1b7c9904b867107b6ce2ae2",
    }),
    ("three_equilibria", "phase"): (0, {
        "manifest.json":
            "417f80e70a0ef516e38abd32aa88c83a07f8158391441b8b7ec2bc499985f816",
        "nullcline.csv":
            "6f0c5fbf2551f11038675fe460c2b3e04eeabd3a7775fe5287d23f929af4a844",
        "phase_field.csv":
            "141e2cc4d93c981252a3acddcf472922d9781c76777401ad16ba2516dba3f5a7",
        "steady_states.json":
            "74d7c2e9360bcfea21ea8093d3d5cb47a4c938f4e091c6f2937e04e7081e7993",
    }),
    ("three_equilibria", "learn"): (0, {
        "convergence.json":
            "b9b27687a49a3f5b92fdce68eaae478d8a42b7dd28edfbc34afbc41fe71d4455",
        "manifest.json":
            "e2a6cc7dd622a907e82027d9a66dc963445294d6d35bb947406a2ca71cf8b8c3",
        "trajectory_000.csv":
            "52c89aceaed14faee400d54f8bc9eb13fc31d18de6830ed4d0298b3c294d1df1",
    }),
    ("three_equilibria", "check"): (0, {
        "assumptions.json":
            "24a280704b82a5d75e71c0c3b9d051020b54d5ee1b21b7a95d438859619d1656",
        "manifest.json":
            "f4f2ffe90b8b905c14f360a774cb14ef61c567816ae816b1eeb0b890f764eff0",
    }),
    ("three_equilibria", "compare --param delta_mu"): (0, {
        "compare.csv":
            "8dd96e186d8a3d0b0428ee0364cb3bedb4b78f2e45400189cdb9d3335b617127",
        "compare.json":
            "f2b319519809c8eac790ca8617fcbc9c9a300141f623a2cb7aaf0f815e068b88",
        "manifest.json":
            "bbdba0a928a7b443900c0f5ea6b5bcf22da7b43ad84f341cde45dfe96b06219a",
    }),
    ("three_equilibria", "compare --param kappa"): (0, {
        "compare.csv":
            "2f3baa9a5d57b119b180e06669abb8e3d6993ff4e851271b2793ed79716f2f99",
        "compare.json":
            "0201fe79d462aef1ef8f2258f8adaceaa1aa851af88eb9268a70773afcecafef",
        "manifest.json":
            "752bc1a2ce65242cd87ff82c94fc3f8134907001cd679908ff668cc84e89772e",
    }),
    ("three_equilibria", "disparity"): (0, {
        "disparity.json":
            "c8f47dad557e8abab8f9a15bb46054c428dc695e1b555d8049dcf1a65c3d65ac",
        "manifest.json":
            "1aafcf2e4eb990449713faecfa626567ebeb2a94e52647e9f8f1afa41ff23f23",
    }),
    ("three_equilibria", "multigroup"): (2, {
    }),
    ("three_equilibria", "learn --runs 8 --horizon 2000"): (0, {
        "convergence.json":
            "388b07643698a64f3d8ea0c4c6066c550fc5038747dda0246d8ae19fd64c6d38",
        "manifest.json":
            "6378d13ad9ecadad648a73a4151bca522bc9afefca1f5e7164570172b74bdc7e",
        "trajectory_000.csv":
            "d681f9f7987aaed660d1256e4b0273112fe9c9ef17cf329775648172405de7ed",
    }),
    ("three_equilibria", "multigroup --horizon 2000"): (2, {
    }),
    ("two_groups", "solve"): (0, {
        "equilibria.json":
            "4264ef11b2f0772ae52a07600112a7a1c4fcbf95f49b637ad6f7b456c777c6af",
        "manifest.json":
            "c0286a1702e60b825378d833cdd320dd361e61f44de4de62cea3b3f78c32b9ec",
        "psi_curve.csv":
            "061e40d71419e6fb5d6c734fe82dcb5f48bfa6bdbd5ed29a889e8920b845424f",
    }),
    ("two_groups", "phase"): (0, {
        "manifest.json":
            "4b69a780e3ce5da08cbb5090b94aa66dfdc77b6d636600ba78fbe1e4b1770fc6",
        "nullcline.csv":
            "0e116b0e275f2501d9c5f7f4b348f3eadd196de265c92cd2383fbe6472e02653",
        "phase_field.csv":
            "5d15dbb6be72f12f18e9bbd114318c3b3105c80e7fe2f09e8862a1def2ab5da0",
        "steady_states.json":
            "b1602744f2e928fd86caf7891f2c49d6bb4ffa46882ed71fd2916fb4730939f9",
    }),
    ("two_groups", "learn"): (0, {
        "convergence.json":
            "5434b325342a4aa2183db869dbdd5552ad1c7d29cd3250ed4771a2e62f3f01c3",
        "manifest.json":
            "900731c4a929bb563565f54b89fbad44a9a25fb22dc7a92f646b9c358a9b048c",
        "trajectory_000.csv":
            "f012fbd9d1c3c87c23b1ea47a3f044638f9ba8a54632dabfeea3a0c9ae34e411",
    }),
    ("two_groups", "check"): (0, {
        "assumptions.json":
            "24a280704b82a5d75e71c0c3b9d051020b54d5ee1b21b7a95d438859619d1656",
        "manifest.json":
            "a7fe2498eefd801dfd30255322b6adc892bb8627abe59bce717c52bd68c2fbd9",
    }),
    ("two_groups", "compare --param delta_mu"): (0, {
        "compare.csv":
            "b8f8f224b49d862505853aebf93b46342b06c9b2470dfb4bb511f18f8498f167",
        "compare.json":
            "5883f70b23ac7d58f3f4f6b0e48c93987f73d0f157dc0f20afeb0b9dc2199319",
        "manifest.json":
            "de923ce4e828ea8bb5595094a71da358073ae47609131e5e69d276f6a281e2be",
    }),
    ("two_groups", "compare --param kappa"): (0, {
        "compare.csv":
            "29adef61d34b403a235fbed34be1636b48e12a710d4dd48ef2c596a757d7f074",
        "compare.json":
            "121b682f0842b805694a239ac7ecb7d4d22b3288641f1872290ba236dfef8576",
        "manifest.json":
            "cf2dfe34e030a24e6da4a04e23a1d5b7a5724582f953db367f0c78acb853a893",
    }),
    ("two_groups", "disparity"): (2, {
    }),
    ("two_groups", "multigroup"): (0, {
        "manifest.json":
            "5d63882515159512a20850ea7d5261f35b0f86f07a35e71160142d045fa1e420",
        "multigroup.json":
            "b2b26d4974efea4a0e13c45042085d1d169580c97c3e2bbe06002c70bbb030e6",
    }),
    ("two_groups", "learn --runs 8 --horizon 2000"): (0, {
        "convergence.json":
            "ebcfaf018d3818e1472e65bd9fde884013bf44a9a6df42022ae996f0c9ad6335",
        "manifest.json":
            "b00bba1160c241dd3dace8e3ecad15bcd56a5ee3a102cb30beab16b592a62aeb",
        "trajectory_000.csv":
            "660e9565661050dc29b7dc07b43baccea695d898d53a0f1b64c3aef84fdfe338",
    }),
    ("two_groups", "multigroup --horizon 2000"): (0, {
        "manifest.json":
            "2688910e30fa1df603602cd0fc69d15c9ab4ad3c57c40b1fbaf13be182a9b8f7",
        "multigroup.json":
            "b2b26d4974efea4a0e13c45042085d1d169580c97c3e2bbe06002c70bbb030e6",
        "trajectory_groups.csv":
            "0e0ecd18afdd7d4f6ae1e246b3028a47b779bddadcacd50d98131c8f5ab4f3e5",
    }),
}


@pytest.mark.parametrize("config,command", sorted(GOLDEN))
def test_cli_output_bytes(tmp_path, config, command):
    code, digests = GOLDEN[config, command]
    name, *flags = command.split()
    with contextlib.redirect_stderr(io.StringIO()):
        got = main([name, str(CONFIGS / f"{config}.ini"), *flags,
                    "--out-dir", str(tmp_path)])
    assert got == code
    assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(tmp_path.iterdir())} == digests
