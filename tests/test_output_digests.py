"""Golden SHA-256 digests of whole command outputs.

The three `verify-all` runs of the benchmark's `verify` workload at seed 1,
`verify-all --depth 8` on t,f, and one exact `definetti recover`: a change
meant to leave every report and measure as it was must keep these bytes.
"""

import hashlib
import json

import pytest

from urnchains.cli import main

# recorded before the certified LP bases were solved on their structural block
GOLDEN = {
    "verify-2sym": "e60bf805d3809e8bd239c9794447c1c54fd64018d058ad7145cd593a1b40456a",
    "verify-3sym": "cdf27204ef24ca78086078e54a411ef96854c08b9f442914f18defdb763c42df",
    "verify-fault": "b46051126743660d859bd7b21b3c1f3716a4f6f767d6405beebfaa6a6a3369b0",
    "verify-depth8": "eee3c3d287711e796a77af39615b0d529e755128f31ab7b1c88de70973b046f8",
    "recover-exact": "148bed94a3c7c3b25b35f7e84d3a92595ae5080b830f4863c116699c2465c3f6",
}


def _argv(name, tmp_path):
    """(argv, exit code) of each run; the verify ones are the benchmark's."""
    abc = tmp_path / "abc.json"
    abc.write_text(json.dumps({"symbols": ["a", "b", "c"]}))
    seed = ["--seed", "1"]
    if name == "recover-exact":
        # an off-grid mixing: the recovery LP has a nonzero residual and six atoms
        mixing = tmp_path / "mixing.json"
        atoms = [(["1/3", "1/3", "1/3"], "1/3"), (["1/5", "2/5", "2/5"], "2/3")]
        mixing.write_text(json.dumps({
            "alphabet": {"symbols": ["a", "b", "c"]},
            "atoms": [{"point": point, "weight": w} for point, w in atoms],
        }))
        bang = str(tmp_path / "bang.json")
        assert main(["bang", "iota", "--mixing", str(mixing), "--depth", "4", "--out", bang]) == 0
        return ["definetti", "recover", "--bang", bang, "--grid", "16", "--mode", "exact"], 0
    return {
        "verify-2sym": (["verify-all", "--depth", "5", "--eq-depth", "6", *seed], 0),
        "verify-3sym": (
            ["verify-all", "--alphabet", str(abc), "--depth", "3", "--eq-depth", "4", "--grid", "8", *seed],
            0,
        ),
        "verify-fault": (["verify-all", "--inject-fault", *seed], 1),
        "verify-depth8": (["verify-all", "--depth", "8"], 0),
    }[name]


@pytest.mark.parametrize("name", GOLDEN)
def test_output_digest(tmp_path, name):
    argv, code = _argv(name, tmp_path)
    out = tmp_path / "out.json"
    assert main(argv + ["--out", str(out)]) == code
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN[name]
