import json
import re
from pathlib import Path

from slipflow.config import config_from_mapping

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_configuration_block_is_the_default_document():
    # a default cannot change without the documented block changing too
    section = README.read_text().split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"```json\n(.*?)\n```", section, re.S).group(1)
    assert json.loads(block) == config_from_mapping({}).document
