"""Golden outputs: the sha256 of every CLI artifact on a small run matrix.

Each case runs one command in process on a shipped config with a 16 x 16
grid and compares the sha256 of each artifact with the pinned digest.  The
sampled-cost cases run on 16 x 16 as well, and once more on the 6 x 2 grid
they used while sampled cost was integrated by adaptive quadrature.  Artifacts are written with repr-exact
%.17g numbers, so a digest moves with any change of a single output bit.
A refactor that claims unchanged outputs must keep every digest; a change
that moves outputs must restate the digests it moves and say why.

``python tests/test_golden_outputs.py`` prints the digests of the current
tree in the layout of ``GOLDEN``; with ``--changed`` it prints only the
artifacts whose digest (or exit code) differs from ``GOLDEN``, old -> new,
and exits 1 if there is any, so its exit status says whether an output
moved.  Run as a script from a checkout, it imports the package from ``src/``.
"""

import argparse
import contextlib
import hashlib
import io
import json
import math
import sys
import tempfile
from pathlib import Path

import pytest

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

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

# name: (command, config number, grid (nx, nt, coord), config overrides, artifacts);
# every case also pins its metadata.json
CASES = {
    "price1": ("price", 1, (16, 16, "log"), {}, PRICE_FILES),
    # needs 30 fixed-point sweeps, inside the default cap of nt + 2 = 32
    "price1_uncapped": ("price", 1, (60, 30, "log"), {}, PRICE_FILES),
    "price2": ("price", 2, (16, 16, "log"), {}, PRICE_FILES),
    "price3": ("price", 3, (16, 16, "log"), {}, PRICE_FILES),
    "price1_central": ("price", 1, (16, 16, "log"), {"solver": {"first_derivative": "central"}}, PRICE_FILES),
    "price2_price_grid": ("price", 2, (16, 16, "price"), {}, PRICE_FILES),
    "price3_sampled": ("price", 3, (6, 2, "log"), {"cost": SAMPLED_COST}, PRICE_FILES),
    "price3_sampled_16": ("price", 3, (16, 16, "log"), {"cost": SAMPLED_COST}, PRICE_FILES),
    "leland1": ("leland", 1, (16, 16, "log"), {"output": {"per_node_csv": True}}, SCAN_FILES),
    "leland1_central": (
        "leland",
        1,
        (16, 16, "log"),
        {"solver": {"first_derivative": "central"}, "output": {"per_node_csv": True}},
        SCAN_FILES,
    ),
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
    "leland3_sampled_16": (
        "leland",
        3,
        (16, 16, "log"),
        {"cost": SAMPLED_COST, "output": {"per_node_csv": True}},
        SCAN_FILES,
    ),
    "sweep1": ("sweep", 1, (16, 16, "log"), {"output": {"dt_values": [0.002, 0.004]}}, ("sweep.csv",)),
    "sweep1_central": (
        "sweep",
        1,
        (16, 16, "log"),
        {"solver": {"first_derivative": "central"}, "output": {"dt_values": [0.002, 0.004]}},
        ("sweep.csv",),
    ),
    "sweep2": ("sweep", 2, (16, 16, "log"), {"output": {"dt_values": [0.002, 0.004]}}, ("sweep.csv",)),
    "sweep3": ("sweep", 3, (16, 16, "log"), {"output": {"dt_values": [0.002, 0.004]}}, ("sweep.csv",)),
    "analytic1": ("analytic", 1, (16, 16, "log"), {}, ("surface.csv",)),
    "analytic1_tau": ("analytic", 1, (16, 16, "log"), {"output": {"tau": 0.5}}, ("surface.csv",)),
    "converge1": ("converge", 1, (16, 16, "log"), {}, ("convergence.csv",)),
}

GOLDEN = {
    "price1": {
        "exit": 0,
        "surface.csv": "791c85277d4777ff9c6871df887ca5cdbebd2ff8f92c349b57a90a81479d51be",
        "cost_field.csv": "c0a5e65ffc3a1fcc817dbc44dc71d17cf6208bbfaccc5d0a7259c9ea69bb04e7",
        "convergence.csv": "ac2650a067609621b1abdc8413f736289452c49b1fb40924cc4162f793b9d209",
        "metadata.json": "9d8bed21cfa925bfa4f0cf6a0a79b836ee92273a73c68b0fce188c9a4b003ada",
    },
    "price1_uncapped": {
        "exit": 0,
        "surface.csv": "3962aa0fca4dc2964f953959671aad2155ca13df7fcfb123ecc1f6cac574a681",
        "cost_field.csv": "4d86e94ff922fbea7b933c421c7fdb18c73b5e1142e0518cffcefcf091302b6b",
        "convergence.csv": "6048f6cfce630b4efc8bfaee10405cd416d515592fe43947062e7365b65d4040",
        "metadata.json": "50d62f0e97b2c7d2e78be68f0773173044b2ea0261bc3a42c28f918fc1a4a934",
    },
    "price2": {
        "exit": 0,
        "surface.csv": "d200ee9fc2bb02536e4ade2e7939e8c97c147754d45e6aa0ca4db40ca6681423",
        "cost_field.csv": "a47dab1487ac0a106f070f09e7a10072cec388922ebfb9f234671e15d83a4dd8",
        "convergence.csv": "c1f4a9e0a9f2d3dd904db5377d09d4e529c473a7e1dcab28f3b0eb18426fb397",
        "metadata.json": "59b44633aacc9b38aadace1790b162c910cbc42c86f6035c6e54267b48d6adc0",
    },
    "price3": {
        "exit": 0,
        "surface.csv": "efbefc93c70e4df7683176f1c531f10d8ee8cfceba69ae7c9692bcac04f3c7e2",
        "cost_field.csv": "5f18fb741a2b9e48e21e85dada8738d49b2131386a0b4dd5a5f9a1ebefbb32f5",
        "convergence.csv": "688c7c75223d7f7250496fdbce867878d8caf70fb6275867053147dcdf2fab2b",
        "metadata.json": "dc0e9dc6b2024070db5f005e44fa1a19f5c1594b7ed53be82c9af6fab3a5d662",
    },
    "price1_central": {
        "exit": 0,
        "surface.csv": "d33a5b980e1d72e67eb99e6e59a1d7d8c0a41a8b759ceac8f001ed55f50aef3a",
        "cost_field.csv": "d69c724141eae930ac382549e0770a6ef2ef296c9fa972264c6de278cfdcb335",
        "convergence.csv": "70c05a66c3f195856efb55d88c67dd319838c32bb49a7bc332cfe21dff845203",
        "metadata.json": "5e2d38daab529732570ade4f6caf23fc62aa49b6cefb4f87d9ee8874240db794",
    },
    "price2_price_grid": {
        "exit": 0,
        "surface.csv": "0d739f60fb71f1e4da575580ef140ae2309a0a63a04eb5f9f0c16e6a0c9cec0f",
        "cost_field.csv": "9ec7138b7400c8f65350d7d4471fd6552c0d280158c617879cbdc4d8436cc468",
        "convergence.csv": "3224d8af8b530a2b3c68591f518d44b1d2ee865b2e90784da5888d27498eb9f4",
        "metadata.json": "4a071c16164c6096f16000760d7259f372aa56ac64e8c6cfada817dd313af853",
    },
    "price3_sampled": {
        "exit": 0,
        "surface.csv": "f53f1e4310ffee2d739bdf97f941e09cb19cda682d02239e09d328048b3c6134",
        "cost_field.csv": "2d3a8faf0fdf8abcfc465db055f2953cc90fb19d7958c8fda395e291d94f0c18",
        "convergence.csv": "e3ed840a04fceec524aade7ce58cb995852aa9001ff85e97a91f899b2c2d9078",
        "metadata.json": "072cb90b8355c5afa0a6f2f057ae9998c4e22d016c69d2dc05f61331ec9517f3",
    },
    "price3_sampled_16": {
        "exit": 0,
        "surface.csv": "0cca89bca6f7ea036c2443d010594f664416b4c6ae53e0cd5f9640c72c594bb9",
        "cost_field.csv": "6753c3512be4ef365d3c77ef4d0051cbf57d1bd0ba275e1b717b7998dc488fc0",
        "convergence.csv": "2438ff729003ff0cfcdbc1db60bdb1722dd3d1ed53c7495b6ab76250ca5a4a89",
        "metadata.json": "8054d8ddadfd28ead92bac8d9156d3db98f5b40ce8ab955c1e6ee8e96e0c3426",
    },
    "leland1": {
        "exit": 0,
        "ellipticity.json": "8d0e5736fef127a77170f38ac182ab266717acd580510af268f217cbe74e8f7c",
        "ellipticity_nodes.csv": "e236addcebfd2f2b2e2facda8e61a47b2c422edab827acdea30224e4992af489",
        "metadata.json": "d76e6ddd39f4768c27e0254da41c68a12a773f98bdf8c9da4963fd4e239ce53c",
    },
    "leland1_central": {
        "exit": 0,
        "ellipticity.json": "79beb4df18be8a68707ce376e955523e8a18b85482e6b39b7e46ca57fb77d494",
        "ellipticity_nodes.csv": "fdc146bc30da210f5704a3f739f2d4fb70cc4c5d96b1203302a2e151919758eb",
        "metadata.json": "0db5233f28a84d04f16425f61d2a3607b9e6e10595fd211f27e23b36978df845",
    },
    "leland2": {
        "exit": 0,
        "ellipticity.json": "11d99a120bb992e9ac9e470fb020a1be0261333de1c34ec1e3cfe64768bf8820",
        "ellipticity_nodes.csv": "765261db00117096aab8d5483d96f5b8adfe46754971ea393febce12806ddeb3",
        "metadata.json": "982b287dd3c8afeb97489e958e8ea585f3a1350695f58d19fe057983742f052e",
    },
    "leland3_exact": {
        "exit": 0,
        "ellipticity.json": "0069c30fc85631265075244f833fa1583c85e95c68674744bb9bd09fbb02466e",
        "ellipticity_nodes.csv": "f6ea1f981b1a06c29865e238f78a79fcd6a9b8396091de1269b03e7356f044b6",
        "metadata.json": "5ab5729f228b85f27bab1abd4838c172f80cdcc1295c62bbe22a668a945e4234",
    },
    "leland3_sampled_exact": {
        "exit": 0,
        "ellipticity.json": "45a690d7aeb8c335029efcb1b7ad17f9a745d44722a2f6560d54d6cf51d3cfb4",
        "ellipticity_nodes.csv": "164f8a1c6a864713f81415d4ce6501d995b4321008d12281142c6872bba109b1",
        "metadata.json": "b2bf12972a5dc483c736bc5e8b784909b6331c0bfe3502741e6ac53775e9ce56",
    },
    "leland3_sampled_16": {
        "exit": 0,
        "ellipticity.json": "663f024590c843e4e347e9d699cd7192969c5b200fd0ce241e026fae5f155d42",
        "ellipticity_nodes.csv": "de3d7650de3e72c63f7c921f1918b9ab814d39da263d87360ac4205b9dc80efe",
        "metadata.json": "b7c3bbd76e82887c2b7a4fa8f4c26cecc54872d5d8e879642e397f9915b99a0f",
    },
    "sweep1": {
        "exit": 3,
        "sweep.csv": "494f231d3b898ddba0d71a64b231c91e25c8f4e792730331d2971cf83f241cca",
        "metadata.json": "c2ab66a2fce14c51e73548aaf983191979f1076799672cf22e45bb06248193ae",
    },
    "sweep1_central": {
        "exit": 3,
        "sweep.csv": "5e9d302134cc397a2f69f9f543ab59c4ebb807e939aabd599453eadf47eabaa1",
        "metadata.json": "fceaaa922cbcf03b6cb91396df1abb032dcb8a05504a76fbd8236c7c36819903",
    },
    "sweep2": {
        "exit": 0,
        "sweep.csv": "b3cbea71cdfbe114d6be11786644c41aa9af17af194fccdf78fc3caff5449181",
        "metadata.json": "7143e45e4b7c138e58728bb58948856597df50fc9b87479a5c95e6731a9bab30",
    },
    "sweep3": {
        "exit": 0,
        "sweep.csv": "8806b1a7d043e3f61dcfa1451059b812ef19ab15a27030906c6dc2cdbb8475b9",
        "metadata.json": "a0f85c6f8e87c736833da6e58f72fd0ed84e013fdf04d7d253594c33241c425e",
    },
    "analytic1": {
        "exit": 0,
        "surface.csv": "13fddf3e299a906d3a4a9966c473ae8da9f8f0efafda3b5e7a96a5c46fcb5f20",
        "metadata.json": "45cf283139f493bc906e1191fccb015fb01b3324bbdc718d6d89ffbf76a8cf5c",
    },
    "analytic1_tau": {
        "exit": 0,
        "surface.csv": "0f70d86dd19e58a8e6dc9d84aaceaf88f2f39dc859f7b316ab29b948f49a1086",
        "metadata.json": "765eb4ed4968fb02d864261e60adfb1449e45474380ee39e8ecec6cb0e74d013",
    },
    "converge1": {
        "exit": 0,
        "convergence.csv": "ac2650a067609621b1abdc8413f736289452c49b1fb40924cc4162f793b9d209",
        "metadata.json": "cf04f11c899f73f5b3b6b4a15a0e15090546ea8110ef798ddcc26270eb14f47b",
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
        for artifact in (*artifacts, "metadata.json"):
            if (out / artifact).exists():
                digests[artifact] = hashlib.sha256((out / artifact).read_bytes()).hexdigest()
        return digests


@pytest.mark.parametrize("name", sorted(CASES))
def test_artifacts_match_pinned_digests(name):
    assert run_case(name) == GOLDEN[name]


def print_changed() -> bool:
    """Print each case's artifacts whose digest differs from ``GOLDEN``; True if any did."""
    changed = False
    for case in CASES:
        old, new = GOLDEN.get(case, {}), run_case(case)
        moved = [key for key in {**old, **new} if old.get(key) != new.get(key)]
        if moved:
            changed = True
            print(f"{case}:")
            for key in moved:
                print(f"    {key}: {old.get(key)} -> {new.get(key)}")
    return changed


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Print the golden digests of the current tree.")
    parser.add_argument("--changed", action="store_true", help="print only the digests that differ from GOLDEN")
    if parser.parse_args().changed:
        sys.exit(1 if print_changed() else 0)
    else:
        print("GOLDEN = {")
        for case in CASES:
            print(f"    {case!r}: {{")
            for artifact, digest in run_case(case).items():
                print(f"        {artifact!r}: {digest!r},")
            print("    },")
        print("}")
