#!/usr/bin/env python3
"""Run the §5.3 ignore-path analysis end to end.

Enumerates the server-side silent-drop paths of the modelled Linux 4.4
stack, probes which candidates the GFW still accepts (→ Table 3),
cross-validates against the older kernels (→ the §5.3 findings), checks
which vehicles survive each provider's middleboxes, and reduces it all
to Table 5's preferred-construction matrix.  Tables 3 and 5 print
through the artifact registry, as ``repro table3`` and ``repro table5``
do.

Run:  python examples/ignore_path_analysis.py
"""

from repro.analysis import cross_validate_middleboxes
from repro.experiments.artifacts import ARTIFACTS
from repro.experiments.tables import render_table


def _print_artifact(artifact_id: str) -> None:
    artifact = ARTIFACTS[artifact_id]
    print(artifact.formatter(artifact.produce()))


def main() -> None:
    # Table 3 and the cross-validation with other TCP stacks (§5.3).
    _print_artifact("table3")

    print("\nMiddlebox survival of each candidate (reliably traverses?):")
    survival = cross_validate_middleboxes()
    providers = ["aliyun", "qcloud", "unicom-sjz", "unicom-tj"]
    table = [
        [name] + [("yes" if survival[name][p] else "NO") for p in providers]
        for name in survival
    ]
    print(render_table(["Candidate"] + providers, table))

    print()
    _print_artifact("table5")
    print(
        "\nTakeaway (§5.3): only the MD5-option vehicle is universally "
        "middlebox-safe; TTL is\ngenerally applicable but needs accurate "
        "hop counts; bad-ACK and old-timestamp work\nfor data packets only."
    )


if __name__ == "__main__":
    main()
