import json
import re
from pathlib import Path

import slipflow
from slipflow.config import config_from_mapping

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_configuration_block_is_the_default_document():
    # a default cannot change without the documented block changing too
    section = README.read_text().split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"```json\n(.*?)\n```", section, re.S).group(1)
    assert json.loads(block) == config_from_mapping({}).document


def test_readme_export_list_is_the_package_all():
    # the README lists every exported name, and says how many there are
    text = README.read_text()
    match = re.search(r"The package exports (\w+) names:\n(.*?)\nEverything else", text, re.S)
    listed = {name for name in re.findall(r"`(\w+)`", match.group(2)) if hasattr(slipflow, name)}
    assert listed == set(slipflow.__all__)
    words = ("zero one two three four five six seven eight nine ten eleven twelve thirteen "
             "fourteen fifteen sixteen seventeen eighteen nineteen twenty").split()
    assert words.index(match.group(1)) == len(slipflow.__all__)


def test_readme_python_examples_run():
    # every example runs as written, in order and in one namespace, since
    # the later ones continue the earlier ones
    namespace = {}
    for block in re.findall(r"```python\n(.*?)\n```", README.read_text(), re.S):
        exec(compile(block, str(README), "exec"), namespace)
