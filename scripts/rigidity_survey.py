#!/usr/bin/env python3
"""Survey the shipped diagonal configs: roots, relations, rigidity verdicts.

Prints one row per config with the positive-root count, the number of
generated relation instances, the chi_R(g_R) scalars seen, and the verdict
with and without the Cartan root power relations.
"""

import argparse

from nicholsalg.configs import load_shipped, shipped_config_names
from nicholsalg.cyclo import format_cyc
from nicholsalg.relations import g_chi, generate_relations, rigidity_verdict
from nicholsalg.weyl import enumerate_roots


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--config", help="single shipped config (default: all diagonal)")
    args = ap.parse_args()

    names = [args.config] if args.config else [
        n for n in shipped_config_names() if not n.startswith("fk")
    ]
    hdr = f"{'config':<18} {'roots':>5} {'rels':>5}  verdict      pre-Nichols"
    print(hdr)
    print("-" * len(hdr))
    for name in names:
        cfg = load_shipped(name)
        V = cfg.space()
        real = cfg.realization(V)
        rs = enumerate_roots(V)
        instances = generate_relations(V, rs)
        v1, _ = rigidity_verdict(V, rs, real)
        v2, _ = rigidity_verdict(V, rs, real, pre_nichols=True)
        print(
            f"{name:<18} {len(rs.positive_roots):>5} {len(instances):>5}"
            f"  {v1:<12} {v2}"
        )
        scalars = sorted(
            {format_cyc(g_chi(real, r)[2]) for r in instances}
        )
        print(f"{'':<18} chi_R(g_R) values: {', '.join(scalars)}")


if __name__ == "__main__":
    main()
