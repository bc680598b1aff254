"""The README's lists of pipeline keys, [scenario] keys, shape names, cloud
formats, noise parameters and subcommands match the code, and its table of unread config fields is the
one the registration tests check."""

import re
from pathlib import Path

from mahaknn.cli import _COMMANDS
from mahaknn.cloudio import FORMATS
from mahaknn.corruption import _VARIANT_PARAMS
from mahaknn.harness import _SCENARIO_KEYS, PIPELINE_FIELDS
from mahaknn.shapes import SHAPES

from test_registration import UNREAD_FIELDS

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
NUMBER_WORDS = {"six": 6, "seven": 7, "eight": 8, "nine": 9, "ten": 10}


def test_pipeline_keys_match_registration_config():
    match = re.search(r"A pipeline section accepts the (\w+) fields of `RegistrationConfig`\s*\(([^)]*)\)", README)
    assert match, "README no longer lists the pipeline keys"
    keys = re.findall(r"`(\w+)`", match.group(2))
    assert keys == list(PIPELINE_FIELDS)
    assert NUMBER_WORDS[match.group(1)] == len(PIPELINE_FIELDS)


def test_scenario_keys_match_scenario_parsers():
    # The README says [scenario] "accepts only the keys shown above".
    match = re.search(r"```ini\n\[scenario\]\n(.*?)\n\n", README, re.S)
    assert match, "README no longer shows a [scenario] section"
    keys = [line.partition("=")[0].strip() for line in match.group(1).splitlines() if not line.startswith("#")]
    assert keys == list(_SCENARIO_KEYS)
    assert re.search(r"`\[scenario\]`\s+accepts only the keys shown above", README)


def test_gen_shapes_match_shape_table():
    match = re.search(r"# synthetic clouds \(fixed geometry, see below\):(.*?)\nmahaknn gen", README, re.S)
    assert match, "README no longer lists the gen shapes"
    names = [name.strip() for name in match.group(1).replace("#", "").split(",")]
    assert names == list(SHAPES)


def test_cloud_formats_match_format_table():
    match = re.search(r"Supported cloud formats by extension: (.*?)\. Only", README, re.S)
    assert match, "README no longer lists the cloud formats"
    assert re.findall(r"`(\.\w+)`", match.group(1)) == list(FORMATS)


def test_noise_parameters_match_variant_params():
    match = re.search(r"A noise spec names a variant and only the parameters that variant reads:(.*?)\. Any other", README, re.S)
    assert match, "README no longer lists the noise parameters"
    listed = {}
    for clause in match.group(1).split(";"):
        variants, _, params = clause.partition(" take")
        for variant in re.findall(r"`(\w+)`", variants):
            listed[variant] = tuple(re.findall(r"`(\w+)`", params))
    assert listed == _VARIANT_PARAMS


def test_subcommand_count_matches_cli():
    match = re.search(r"exposes (\w+) subcommands", README)
    assert match, "README no longer counts the subcommands"
    assert NUMBER_WORDS[match.group(1)] == len(_COMMANDS)


def test_unread_field_table_matches_registration_test():
    match = re.search(r"\| Field \| Descriptor \| Metric \| k \|\n\| --- \| --- \| --- \| --- \|\n((?:\|.*\n)+)", README)
    assert match, "README no longer quotes the table of unread fields"
    rows = [
        tuple(cell.strip().strip("`") for cell in line.strip("|").split("|"))
        for line in match.group(1).splitlines()
    ]
    assert tuple(rows) == UNREAD_FIELDS
