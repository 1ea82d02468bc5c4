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
        "surface.csv": "f8fe04078f1c3da2155bb641aba1a8a518cd7db9798e63a77612871bcb5684c9",
        "cost_field.csv": "2344b96864d6451506f45577ecc1c57723b9a63f0546d073e87f30903c699e85",
        "convergence.csv": "055e1e662992367bcb571aa4ff8da84012d0051df92c72bae75ebac98554c281",
    },
    "price1_uncapped": {
        "exit": 0,
        "surface.csv": "616a68cb369acd6a27a99462dab085fa673bd0fc0f7c3927b600d878f7bd6e0f",
        "cost_field.csv": "2a1d36d4e2bfc4421117b2b39d4eac0e54bf33bb210edd5aadedaacb3cfdc012",
        "convergence.csv": "d1db043a7916a20aa92dfbbc7bb4d635fe12b919fd1bdef036bb110ae0f3a9ad",
    },
    "price2": {
        "exit": 0,
        "surface.csv": "efbae7fcc51006c5cec3776e3e6fd21f8f9f52a6fd5acadcafaad2877de577c2",
        "cost_field.csv": "2569521e7440d24d94c5beddf6de0cb7a08fce43e4bf42e968c604d73bd39c62",
        "convergence.csv": "72cfa701d0af34ca8ae0c9e2ba25d095db078634ed95d3286621c0ffe47f0aaa",
    },
    "price3": {
        "exit": 0,
        "surface.csv": "5055f1ce93d2c0abf36cbf94fa25dac3e1d96285cf1809cc94482d7f0e18bf13",
        "cost_field.csv": "c49f730c32af71f4530975a76cf7555d1ca97d873e237080ac1a42f37b8c6ec1",
        "convergence.csv": "ec4c9a364a6dc2d690a3b0527e747f80f38e9cf5fa7c8222fe36508b3bad6827",
    },
    "price1_central": {
        "exit": 0,
        "surface.csv": "340c5431805a9ce3bbd47d6e17282c01e267715e7f8b8c7e5d9f516cc54babcd",
        "cost_field.csv": "0593b157bdedff3134f944775255608b85b47c50fe607917ff3955623ac971ad",
        "convergence.csv": "9b86d80323c7178bc197ff9bb8f2019248903f11a4522e13b7849e63b766f9d4",
    },
    "price2_price_grid": {
        "exit": 0,
        "surface.csv": "f06c16407b580dbef0fbb2e6c40f641ba8ef93bdc88da541d01e0cbeafc2b055",
        "cost_field.csv": "2575260114cc37c1eed5bf0d861762c53c468f40780ad45686a97d6ab8afe9ae",
        "convergence.csv": "fa45b9d2d8350d3fe7ebfdc7f7b1d4f47ec4fa0a37d9c735668192c76abeeaf3",
    },
    "price3_sampled": {
        "exit": 0,
        "surface.csv": "f689138f05d9d7e67f408f71a8e2e1c04e2379658ea12855dd7b96079a62ad1e",
        "cost_field.csv": "d4192239f69cc7ebc42d07ef92a7967d7af03b37cc15da0ee5aba37dbb77b348",
        "convergence.csv": "3d8bf862c4003f6103c45367321cbdb6904da021e4bff6153c55eef1be8b44c8",
    },
    "leland1": {
        "exit": 0,
        "ellipticity.json": "bcacaaf09f70dd2ff17597b88ea7e7f8ada7542ce4edbad47be5a3a887837d3d",
        "ellipticity_nodes.csv": "ee55e25f78250f009c5e996abd94d2a1c9f331dc3a337452761f42ef1c69eb96",
    },
    "leland2": {
        "exit": 0,
        "ellipticity.json": "f760772d71c60e431076fae8742382243ddea72d4a366649d2b0def2a0f9a889",
        "ellipticity_nodes.csv": "1f54b7c08d8cfde25e955102ee8e97b78085ceeeeb3fbe12f29a82ebd732e940",
    },
    "leland3_exact": {
        "exit": 0,
        "ellipticity.json": "25d384d719371c823b6aa2cb854522f26bce1c73245184e19c50ce02ba0c2041",
        "ellipticity_nodes.csv": "b06efafa3028317bc779e3b15532cb505eb9d1401944004f14cb40c9c5b53fbd",
    },
    "leland3_sampled_exact": {
        "exit": 0,
        "ellipticity.json": "f8759a85173f329c39437056b6874ce97696d2f707800ad797f915928216fa0f",
        "ellipticity_nodes.csv": "9edc8ef48f0fa6c1f2b5c9c79cfe3359356d9013ad445cb3c3f3382408ad9394",
    },
    "sweep1": {
        "exit": 3,
        "sweep.csv": "9bf537d8e21ff47973410cd842b8d5818b3277c0f1d89cab9dddfb2f4f77aa47",
    },
    "sweep2": {
        "exit": 0,
        "sweep.csv": "4729f619f4c654ed1c2f0a2bff05bcd86fb3a879db59b05e939d4f3e5990254f",
    },
    "sweep3": {
        "exit": 0,
        "sweep.csv": "ce0910c3908e51191eb9bd277bfac93deeebef51f87be487d52e174a4a55e872",
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
