#!/usr/bin/env python3
"""Scenario: should the edge box offload prefill to a nearby server?

The paper's §4 suggests "coupling edge inferencing with cloud
endpoints"; its ref [11] (Splitwise) splits the compute-bound prefill
from the memory-bound decode.  This example serves the same Llama
request stream on two fleets: the Orin alone, and an A100 + Orin pair
under the ``splitwise`` router (the A100 prefills, the prompt's KV
crosses a link, the Orin decodes).  It sweeps prompt lengths and link
speeds, then finds the break-even prompt length — the shortest prompt
at which the split serves >10% more tokens per second — by doubling
the prompt over fleet runs.

Both fleets batch continuously (requests join and leave the batch at
token granularity) under Poisson arrivals, so these numbers differ from
a steady-state pipeline of static batches.

Run:  python examples/edge_cloud_splitting.py
"""

from repro.cluster import EdgeCluster, FleetSpec, NodeSpec, poisson_workload
from repro.reporting import format_table

LINKS = {"1 GbE": 1e9 / 8, "10 GbE": 10e9 / 8, "100 GbE": 100e9 / 8}
ORIN = NodeSpec("jetson-orin-agx-64gb", max_batch=32)
A100 = NodeSpec("a100-sxm-80gb", max_batch=32)


def serve(fleet: FleetSpec, prompt: int):
    reqs = poisson_workload(2.0, 64, input_tokens=prompt, output_tokens=64,
                            seed=0)
    return EdgeCluster.of(fleet).run(reqs)


def orin_only(prompt: int):
    return serve(FleetSpec.of([ORIN], model="llama"), prompt)


def split(prompt: int, link: float):
    return serve(FleetSpec.of([A100, ORIN], model="llama",
                              policy="splitwise", link_bytes_per_s=link),
                 prompt)


def break_even_prompt(link: float, max_prompt: int = 8192):
    """Shortest prompt (doubling from 16) where the split's throughput
    beats the Orin alone by >10%; None if it never does."""
    prompt = 16
    while prompt <= max_prompt:
        if (split(prompt, link).throughput_tok_s
                > 1.1 * orin_only(prompt).throughput_tok_s):
            return prompt
        prompt *= 2
    return None


def main() -> None:
    print("Llama FP16, 64 requests at 2 req/s, 64 output tokens: Orin alone "
          "vs A100 prefill + Orin decode\n")
    rows = []
    for prompt in (128, 512, 2048):
        alone = orin_only(prompt)
        for link_name, link in LINKS.items():
            pair = split(prompt, link)
            rows.append({
                "prompt_tokens": prompt,
                "link": link_name,
                "orin_p50_ttft_s": round(alone.p50_ttft_s, 2),
                "split_p50_ttft_s": round(pair.p50_ttft_s, 2),
                "orin_tok_s": round(alone.throughput_tok_s, 1),
                "split_tok_s": round(pair.throughput_tok_s, 1),
                "split_speedup": round(
                    pair.throughput_tok_s / alone.throughput_tok_s, 2),
            })
    print(format_table(rows, title="Orin alone vs splitwise A100 + Orin"))

    be = break_even_prompt(LINKS["10 GbE"])
    print(f"\nbreak-even prompt length at 10 GbE, 64 output tokens: "
          f"{be if be else '> 8192'} tokens")
    print("Below it the Orin alone keeps up with the offered load and the")
    print("second device buys nothing; past it, prefill saturates the edge box,")
    print("and the longer the prompt, the more the cloud-coupled deployment")
    print("the paper gestures at pays.")


if __name__ == "__main__":
    main()
