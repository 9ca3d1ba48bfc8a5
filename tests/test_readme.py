"""The README's JSON examples load through the strict readers, so a stale
or misspelled example key fails the suite."""

import json
import re
from pathlib import Path

from iotids.pipeline import ExperimentConfig, model_settings
from iotids.synth import SynthSpec

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_json_examples_load():
    spec, config = re.findall(r"```json\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert SynthSpec.from_dict(json.loads(spec)).task == "multiclass"
    cfg = ExperimentConfig.from_dict(json.loads(config))
    # validate checks the listed models' params; the example documents every model's
    for kind, params in cfg.model_params.items():
        model_settings(kind, params, cfg.seed)
