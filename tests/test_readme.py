"""The README's lists of pipeline keys and shape names match the code."""

import re
from pathlib import Path

from mahaknn.harness import PIPELINE_FIELDS
from mahaknn.shapes import SHAPES

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
NUMBER_WORDS = {"seven": 7, "eight": 8, "nine": 9, "ten": 10}


def test_pipeline_keys_match_registration_config():
    match = re.search(r"A pipeline section accepts the (\w+) fields of `RegistrationConfig`\s*\(([^)]*)\)", README)
    assert match, "README no longer lists the pipeline keys"
    keys = re.findall(r"`(\w+)`", match.group(2))
    assert keys == list(PIPELINE_FIELDS)
    assert NUMBER_WORDS[match.group(1)] == len(PIPELINE_FIELDS)


def test_gen_shapes_match_shape_table():
    match = re.search(r"# synthetic clouds \(fixed geometry, see below\):(.*?)\nmahaknn gen", README, re.S)
    assert match, "README no longer lists the gen shapes"
    names = [name.strip() for name in match.group(1).replace("#", "").split(",")]
    assert names == list(SHAPES)
