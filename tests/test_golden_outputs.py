"""Golden outputs: the sha256 of every CLI artifact on a small run matrix.

Each case runs one command in process on a shipped config with a 16 x 16
grid (the sampled-cost cases on 6 x 2) and compares the sha256 of each
artifact with the pinned digest.  Artifacts are written with repr-exact
%.17g numbers, so a digest moves with any change of a single output bit.
A refactor that claims unchanged outputs must keep every digest; a change
that moves outputs must restate the digests it moves and say why.

``python tests/test_golden_outputs.py`` prints the digests of the current
tree in the layout of ``GOLDEN``; with ``--changed`` it prints only the
artifacts whose digest (or exit code) differs from ``GOLDEN``, old -> new.
"""

import argparse
import contextlib
import hashlib
import io
import json
import math
import tempfile
from pathlib import Path

import pytest

from nlbs.cli import main

from conftest import load_config

SAMPLED_COST = {
    "type": "sampled",
    "x": [0.0, 0.5, 1.0, 2.0],
    "c": [0.004, 0.003, 0.002, 0.001],
    "c_upper": 0.004,
    "dc": [-0.002, -0.002, -0.0015, -0.001],
}

PRICE_FILES = ("surface.csv", "cost_field.csv", "convergence.csv")
SCAN_FILES = ("ellipticity.json", "ellipticity_nodes.csv")

# name: (command, config number, grid (nx, nt, coord), config overrides, artifacts)
CASES = {
    "price1": ("price", 1, (16, 16, "log"), {}, PRICE_FILES),
    # needs 30 fixed-point sweeps, inside the default cap of nt + 2 = 32
    "price1_uncapped": ("price", 1, (60, 30, "log"), {}, PRICE_FILES),
    "price2": ("price", 2, (16, 16, "log"), {}, PRICE_FILES),
    "price3": ("price", 3, (16, 16, "log"), {}, PRICE_FILES),
    "price1_central": ("price", 1, (16, 16, "log"), {"solver": {"first_derivative": "central"}}, PRICE_FILES),
    "price2_price_grid": ("price", 2, (16, 16, "price"), {}, PRICE_FILES),
    "price3_sampled": ("price", 3, (6, 2, "log"), {"cost": SAMPLED_COST}, PRICE_FILES),
    "leland1": ("leland", 1, (16, 16, "log"), {"output": {"per_node_csv": True}}, SCAN_FILES),
    "leland2": ("leland", 2, (16, 16, "log"), {"output": {"per_node_csv": True}}, SCAN_FILES),
    "leland3_exact": (
        "leland",
        3,
        (16, 16, "log"),
        {"solver": {"dyf_form": "exact"}, "output": {"per_node_csv": True}},
        SCAN_FILES,
    ),
    "leland3_sampled_exact": (
        "leland",
        3,
        (6, 2, "log"),
        {"cost": SAMPLED_COST, "solver": {"dyf_form": "exact"}, "output": {"per_node_csv": True}},
        SCAN_FILES,
    ),
    "sweep1": ("sweep", 1, (16, 16, "log"), {"output": {"dt_values": [0.002, 0.004]}}, ("sweep.csv",)),
    "sweep2": ("sweep", 2, (16, 16, "log"), {"output": {"dt_values": [0.002, 0.004]}}, ("sweep.csv",)),
    "sweep3": ("sweep", 3, (16, 16, "log"), {"output": {"dt_values": [0.002, 0.004]}}, ("sweep.csv",)),
}

GOLDEN = {
    "price1": {
        "exit": 0,
        "surface.csv": "def2bbe97cc1f05196c9bb22dcedbd14b5d046d16f469b095f8608975b137478",
        "cost_field.csv": "9fe335e9647cba2c2f7490e328d1a28216b5214eb2768c28ca115f8183bce35f",
        "convergence.csv": "25998433e8fe22c153844fc65a2048f3a5a65cd300b576442ebeec408aecfb28",
    },
    "price1_uncapped": {
        "exit": 0,
        "surface.csv": "02bf55b63bfa43a943087db4831d5ed25c0ff843968df4654c81c8e4545ebe9b",
        "cost_field.csv": "82cd524745411d59801961a4998cf4048513a14875af9097e1a31a295180ff90",
        "convergence.csv": "80a3823930758779d9260ae1858bf79c45a8244cc0c89e19ac10a11587eeb002",
    },
    "price2": {
        "exit": 0,
        "surface.csv": "f7c5c79ddc952287a6f584f2e955773e5d97f6a5651e66c0ff614f6eac57405d",
        "cost_field.csv": "6b7c3b2bb3a1bb4ecd91ae8feb1f900214232d2dedc9432c60496c4e8a463827",
        "convergence.csv": "dc56be55167343646853db4f160b3f25886e38f4dbf84bcddb9f6f6fe0f1d84f",
    },
    "price3": {
        "exit": 0,
        "surface.csv": "138dd5f31f86639c3a90b456b56b5107af42ca25aa994322cea5d921618a5fd2",
        "cost_field.csv": "64f5047e22686f5cdb674c23f95ad589f6d5d0095e3b20d54adfb252f0fb66b9",
        "convergence.csv": "01d35e7f9bd337bed4d6b809662857f09a9656af0e40e8f279a7b7418ed187eb",
    },
    "price1_central": {
        "exit": 0,
        "surface.csv": "a837a6b116a95bc91fbfd0617effe3e9bfa9c66b33cb16f6f7eeff40d01c31a2",
        "cost_field.csv": "48c3f21184bfee899c1bda8b6568416971b2b9b3eb40bb9db130a38d5e884535",
        "convergence.csv": "aed7381149eb5108ef84df6093de1c4c91074dc360eb7e74f15573f4b7583d87",
    },
    "price2_price_grid": {
        "exit": 0,
        "surface.csv": "459453f096941cc117e5e4efa41a317b0373d4fcf8e40518b15c9523aa40576c",
        "cost_field.csv": "1ec7a086070859be3269a4ccffabc9c1169d8061986b56a723f8555590755dc8",
        "convergence.csv": "1dddc9359ba769edc70c6337265c56cc7a36717d35e17a9aa7bd364b1d0e194f",
    },
    "price3_sampled": {
        "exit": 0,
        "surface.csv": "f689138f05d9d7e67f408f71a8e2e1c04e2379658ea12855dd7b96079a62ad1e",
        "cost_field.csv": "d7bd9f07a950973f53ed43440a1077e5c1d1eb2ac1d044cd8e750720a6f3e60e",
        "convergence.csv": "ba96b4a3a5689516fe4b0abe0a044757934cd392c4757d1b95e36289b8900467",
    },
    "leland1": {
        "exit": 0,
        "ellipticity.json": "5831e1b3e957b0cffe186219a9af8faf4690fa66af0cb4113bf380b664a196bf",
        "ellipticity_nodes.csv": "415996018de51e50d339937fb307aa86423d960b39f5716405d4f9f454fdef05",
    },
    "leland2": {
        "exit": 0,
        "ellipticity.json": "5e6a91c0c1acc56a37ba8ac210ab14db1697658b9f1f19100d0e4bfed3e380dd",
        "ellipticity_nodes.csv": "b02283cca6e4d7961a56c7fe24169b5411c785170600063fc3158eb94c39131a",
    },
    "leland3_exact": {
        "exit": 0,
        "ellipticity.json": "25d384d719371c823b6aa2cb854522f26bce1c73245184e19c50ce02ba0c2041",
        "ellipticity_nodes.csv": "204ad269630ee9ec10078e86087bdeeca6b06784953a7ce2a6591bfb146db246",
    },
    "leland3_sampled_exact": {
        "exit": 0,
        "ellipticity.json": "7da16daa4ad6a51add9296f93fdbe6b143174796f84ba5099aafa56ceb83c799",
        "ellipticity_nodes.csv": "a40aa0e96db67ccc283d11e1cdb5eaba03e7c6b1eee5fcb2613886c0b5ea36a8",
    },
    "sweep1": {
        "exit": 3,
        "sweep.csv": "36489de279a508115ac248aaba1097be7ce11e7a16faa6f7a30dc5304f828ef9",
    },
    "sweep2": {
        "exit": 0,
        "sweep.csv": "4729f619f4c654ed1c2f0a2bff05bcd86fb3a879db59b05e939d4f3e5990254f",
    },
    "sweep3": {
        "exit": 0,
        "sweep.csv": "f5fd648161d7ea0ea4a1e94c2e8436fc087e744a9a3eee4104985c04e81dcb76",
    },
}


def case_config(config: int, grid: tuple, overrides: dict) -> dict:
    """Config ``config`` on the given grid, with whole sections replaced."""
    cfg = load_config(config)
    nx, nt, coord = grid
    sigma = max(cfg["market"]["sigmas"])
    half = 3.0 * sigma * math.sqrt(cfg["market"]["T"]) + 1.0
    x = cfg["payoff"]["X"]
    if coord == "log":
        a, b = math.log(x) - half, math.log(x) + half
    else:
        a, b = x * math.exp(-half), x * math.exp(half)
    cfg["grid"] = {"a": a, "b": b, "nx": nx, "nt": nt, "coord": coord}
    cfg.update(overrides)
    return cfg


def run_case(name: str) -> dict:
    """Run one case; its exit code and the sha256 of each artifact it wrote."""
    command, config, grid, overrides, artifacts = CASES[name]
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = Path(tmp) / "cfg.json"
        cfg_path.write_text(json.dumps(case_config(config, grid, overrides)))
        out = Path(tmp) / "out"
        with contextlib.redirect_stdout(io.StringIO()):
            digests = {"exit": main([command, "--config", str(cfg_path), "--out", str(out)])}
        for artifact in artifacts:
            if (out / artifact).exists():
                digests[artifact] = hashlib.sha256((out / artifact).read_bytes()).hexdigest()
        return digests


@pytest.mark.parametrize("name", sorted(CASES))
def test_artifacts_match_pinned_digests(name):
    assert run_case(name) == GOLDEN[name]


def print_changed() -> None:
    """Print each case's artifacts whose digest differs from ``GOLDEN``."""
    for case in CASES:
        old, new = GOLDEN.get(case, {}), run_case(case)
        moved = [key for key in {**old, **new} if old.get(key) != new.get(key)]
        if moved:
            print(f"{case}:")
            for key in moved:
                print(f"    {key}: {old.get(key)} -> {new.get(key)}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Print the golden digests of the current tree.")
    parser.add_argument("--changed", action="store_true", help="print only the digests that differ from GOLDEN")
    if parser.parse_args().changed:
        print_changed()
    else:
        print("GOLDEN = {")
        for case in CASES:
            print(f"    {case!r}: {{")
            for artifact, digest in run_case(case).items():
                print(f"        {artifact!r}: {digest!r},")
            print("    },")
        print("}")
