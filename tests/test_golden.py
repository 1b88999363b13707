"""Byte-identical outputs of the four benchmark runs and more, pinned by
sha256.

`c4-raag-3-all-exports` pins every export of a graph with ideal tiles: its
tiling JSON, DOT and SVG files print each ideal tile with its parent id and
facet.  `path3-az-special-5` pins a partial lift, whose pruned history
holds only the tiles over lifted elements.  Both were recorded before tiles
became indices into their level and ideal tiles came to be formed on
demand.  `path3-az-special-2` and `path3-az-special-3` pin the same partial
lift with no rule (below three levels) and at three levels; they were
recorded before a pruned history came to be the ambient tilings plus a
member set.  `genus5-special-3` pins the closed genus-5 surface in the
graph group of the 5-cycle (`conftest.genus5_surface`), the first
multi-vertex complex pinned, whose lifts prune the ambient rule; it was
recorded before the rule's rounds came to be int colours.  `p4-raag-4` pins P4 at depth 4, whose diameters
grow quadratically; it was recorded before the ball's elements came to be
numbered by one global index.

The `report.json` digests were re-recorded when the divergence verdict came
to be read exactly off the diameters: `divergence.fit` (two float
least-squares fits) went and `divergence.degree` came, and nothing else in
those reports changed.  Every other digest dates from before tile ids were
shared and each level's adjacency stored once.  A change that alters one of
these files on purpose re-records its digest and says why.  The inputs are
written out here, or generated by `conftest`, so the test reads no other
directory.
"""

import hashlib
import json
import os

import pytest

from subdivlab.cli import main
from conftest import genus5_surface

C4 = {"generators": ["a", "b", "c", "d"],
      "edges": [["a", "b"], ["b", "c"], ["c", "d"], ["d", "a"]]}
K4 = {"generators": ["a", "b", "c", "d"],
      "edges": [["a", "b"], ["a", "c"], ["a", "d"], ["b", "c"], ["b", "d"],
                ["c", "d"]]}
PATH3_SPECIAL = {
    "defining_graph": {"generators": ["a", "z", "b"],
                       "edges": [["a", "z"], ["b", "z"]]},
    "vertices": ["v"],
    "edges": [{"id": "e_a", "from": "v", "to": "v", "label": "a"},
              {"id": "e_z", "from": "v", "to": "v", "label": "z"},
              {"id": "e_b", "from": "v", "to": "v", "label": "b"}],
    "squares": [[["e_a", 1], ["e_z", 1], ["e_a", -1], ["e_z", -1]],
                [["e_b", 1], ["e_z", 1], ["e_b", -1], ["e_z", -1]]]}
# P4, the path a-b-c-d: the one connected class on 4 generators that is not
# a join
P4 = {"generators": ["a", "b", "c", "d"],
      "edges": [["a", "b"], ["b", "c"], ["c", "d"]]}
TRIANGLE = {"generators": ["a", "b", "c"],
            "edges": [["a", "b"], ["a", "c"], ["b", "c"]]}
# path3 with only the a and z loops and their square (tests/test_cli.py)
PATH3_AZ = {"defining_graph": {"generators": ["a", "z", "b"],
                               "edges": [["a", "z"], ["b", "z"]]},
            "vertices": ["v"],
            "edges": [{"id": "e_a", "from": "v", "to": "v", "label": "a"},
                      {"id": "e_z", "from": "v", "to": "v", "label": "z"}],
            "squares": [[["e_a", 1], ["e_z", 1], ["e_a", -1], ["e_z", -1]]]}

RUNS = {
    "c4-raag-3": (C4, ["--mode", "raag", "--levels", "3",
                       "--export", "reports"], {
        "counts.csv":
            "729be0fed88fa51399772fddc678bd418296ee972fd8563f0a9dca175922cc08",
        "report.json":
            "847c6ec8c8032161faaae14a4051878794151e83ca0daaf9bffe1a0054d7b2f4",
    }),
    "c4-raag-3-all-exports": (C4, ["--mode", "raag", "--levels", "3",
                                   "--export", "tilings,dot,svg,reports"], {
        "counts.csv":
            "729be0fed88fa51399772fddc678bd418296ee972fd8563f0a9dca175922cc08",
        "dot/history.dot":
            "16ae430d83b51b2ab8b3f3379d369fb98d46edd309bf34139208d3498f8b7142",
        "dot/level_00.dot":
            "3c47ffd8fb47e31f4243da48308e39df5406fd07ebef4aed20e35f73d987a5da",
        "dot/level_01.dot":
            "846fccf020bbea61cb7a752530a5842461412f034522e7c9f068d5e241d7e8b8",
        "dot/level_02.dot":
            "9b52d20b6b117d3a44b8b8b66feaee015c9d5d36edf1c603c77d4b5a55a6cd8b",
        "report.json":
            "847c6ec8c8032161faaae14a4051878794151e83ca0daaf9bffe1a0054d7b2f4",
        "svg/level_00.svg":
            "8399423006798f5ace66ccfd94bd0ce29e8a7fc0e4f09b93392cde0efd243b2f",
        "svg/level_01.svg":
            "f8e03e058a13517727f109327b9645b501e861f7228f3529239abe30e07252bf",
        "svg/level_02.svg":
            "d97e0ec1d529f55f2309aa2bbb80d4c45ad099c6ca07d973fb5f4da2ac089e2e",
        "tilings/level_00.json":
            "bf17cc45bf23827d60b0719af82e0a0e79a96fef10ef98bfca001832c0f34273",
        "tilings/level_01.json":
            "94ed17d84bdc89a3db132e44319ce91516e866d6219978f125c02a60891c5812",
        "tilings/level_02.json":
            "02cd3526933c3535d9857a66fa265eb19923a96d48b52af21cfa336756a1dbe2",
    }),
    "k4-raag-3": (K4, ["--mode", "raag", "--levels", "3",
                       "--export", "reports"], {
        "counts.csv":
            "3195a0515b2a1f54b5b782da73f2db9c08de74947aa73cef548829f00a1dcb9c",
        "report.json":
            "8ec886249812d92684477fd39d2b2c07f016786c248e8f2491da671b98da6402",
    }),
    "p4-raag-4": (P4, ["--mode", "raag", "--levels", "4"], {
        "counts.csv":
            "d6f37f26a0f66b7c5a36a09a132c8b576973c6a86db3cee12af3958f41ed8369",
        "report.json":
            "3a971b7a9314bed183a75546134b2b50850d3a580b36081e2f439ba4637f2da3",
    }),
    "path3-special-5": (PATH3_SPECIAL, ["--mode", "special", "--levels", "5"], {
        "counts.csv":
            "86e9aa6b018cede9121994548256a19dcf5911a6c36390aa92b7a7c8eea7ab48",
        "report.json":
            "1a2f8139683af86a5cbf4756b914268d4e88bac32a85de444bb11d5707b33ae7",
    }),
    "path3-az-special-5": (PATH3_AZ, ["--mode", "special", "--levels", "5"], {
        "counts.csv":
            "86e9aa6b018cede9121994548256a19dcf5911a6c36390aa92b7a7c8eea7ab48",
        "report.json":
            "ade512cb9757df4b5290f98a21357e497121c184b8248c274e899570cc3c4b31",
    }),
    "genus5-special-3": (genus5_surface(), ["--mode", "special",
                                            "--levels", "3"], {
        "counts.csv":
            "375339b57c0033b0161be3aa49de354d0bccb21f3ad5d5330183aa1bbee0681d",
        "report.json":
            "494c2d1d6d00441f4b71743477bc41cd11d054c198b3bf335cd821de01b78e27",
    }),
    "path3-az-special-2": (PATH3_AZ, ["--mode", "special", "--levels", "2"], {
        "counts.csv":
            "7cc1bf881148170326850e4e7d1c8151414334695b7ea7ebbbd76cbe98d035fa",
        "report.json":
            "50f593d94c11c69a1dda2127353c0088ed98d43235f2bd18a38e831732b04c8e",
    }),
    "path3-az-special-3": (PATH3_AZ, ["--mode", "special", "--levels", "3"], {
        "counts.csv":
            "92c815a35f310ff13839be675b6452d894b6fe06e022bfd2973bed62f97f768b",
        "report.json":
            "7919a65042739d83b7fb9d590f75e1eb20c0686627ae01c06f666046bba30aee",
    }),
    "triangle-raag-5-all-exports": (TRIANGLE, [
        "--mode", "raag", "--levels", "5",
        "--export", "tilings,dot,svg,reports", "--layout-seed", "0"], {
        "counts.csv":
            "4e336f277a21e79fcd7abb647e29aff7a317fb48ef6564611a2e834ce9073f70",
        "dot/history.dot":
            "3381b9c081faa02d9591729787a23afc811cfaface0cbe895c436d58be23445a",
        "dot/level_00.dot":
            "d9cc9fdd7dcef2ff3b08e86dc2e8bc89467e76d441a9d5778748e865b1178701",
        "dot/level_01.dot":
            "2d058b295eac3c40371c87fac8c90004b9ab3bce98a10142059fd6aa03f531f0",
        "dot/level_02.dot":
            "d72d7c8e95fbc1159df251801c88dd6696cc3b54dcb00975388269b543b6a993",
        "dot/level_03.dot":
            "ede55bc811a3fffbfe0d6a3d6611bb7f912b388d2e0d0d802a97c09354aa1d72",
        "dot/level_04.dot":
            "3b8c71f4e2bd79a75256aaf3664cc52deeeab117e6555268228ba30fbd208c2f",
        "report.json":
            "7f1e72e4da8b34f380dbb1ecd153f451d7eeaa95e3a7586566bf4f0a522961fc",
        "svg/level_00.svg":
            "53565eb68d5624f0cae0a3b289793bb4039be7f24189dd6c795557c750700de9",
        "svg/level_01.svg":
            "01ca18787b92ccc0731ccf26807b0e1bc465b4190357dd1acc5fc67a45897320",
        "svg/level_02.svg":
            "4b32fb0198011b77808438025c538fddc483a37133173e6c991fcdfe6e763f4d",
        "svg/level_03.svg":
            "6c5d00896562cfd36b582d2f52fefd38d375bad04abe22cc8dc2173a797090f7",
        "svg/level_04.svg":
            "515acb97722441a617796276a97b0628217561cbd8ac03f83471147ede224730",
        "tilings/level_00.json":
            "8ee1034a1d35879b6cafd7a6566494c1223df4ea405d4caaa5f5e192a481eaac",
        "tilings/level_01.json":
            "ad0618e5e15b0b1f462f3238de57578e90cba74e50a46d88536b3a2ad92682cf",
        "tilings/level_02.json":
            "8061872aed4219e687512c75ef4c870ef6b997723e1fc6401dadf5ff95bb27f9",
        "tilings/level_03.json":
            "1b75f5e5f41c3e1a5e221f041235ecde8038141fbe027d7d5c8deb1efa40de5b",
        "tilings/level_04.json":
            "600c84cfe80d90a73a1c1e860759890de70c7ae8b5f741dfabd1595ccf8c7d8c",
    }),
}


def digests(root):
    out = {}
    for path, _, files in os.walk(root):
        for name in files:
            full = os.path.join(path, name)
            with open(full, "rb") as f:
                out[os.path.relpath(full, root).replace(os.sep, "/")] = \
                    hashlib.sha256(f.read()).hexdigest()
    return out


@pytest.mark.parametrize("run", sorted(RUNS))
def test_outputs_byte_identical(tmp_path, run):
    data, flags, expected = RUNS[run]
    inp = tmp_path / "input.json"
    inp.write_text(json.dumps(data))
    out = tmp_path / "out"
    assert main(["run", str(inp), "--out", str(out)] + flags) == 0
    assert digests(out) == expected
