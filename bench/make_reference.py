"""Rebuild ``reference.json``, the expected outcome of every benchmark episode.

Run from the repository root: ``python3 bench/make_reference.py``.

For each episode the reference holds the digest of its record's compared
fields, the backend calls it made after the cache, and its success
verdict. The benchmark fails its correctness gate on any difference, so
rebuilding this file accepts the engine's current transcripts as correct:
do it only for a deliberate change of behaviour. Game of 24 episodes are
answered here by the responder in-process; records do not depend on the
transport, and the benchmark checks that the HTTP runs agree.
"""

from __future__ import annotations

import json
import shutil
from itertools import islice

from workload import (
    CACHED_POOL,
    GAME24_CHUNK,
    GAME24_VARIANTS,
    OUT,
    REFERENCE,
    TRAP_CHUNKS,
    Chunk,
    Game24Http,
    Totals,
    TrapCpu,
    timed_episodes,
)


def build() -> dict[str, list[list]]:
    out_dir = OUT / "reference"
    reference: dict[str, list[list]] = {}
    totals = Totals()
    try:
        trap = TrapCpu(0, out_dir)
        trap.order = list(range(TRAP_CHUNKS))
        with timed_episodes(trap):
            for chunk in islice(trap.chunks(), 2 * TRAP_CHUNKS):
                reference[chunk.key] = trap.run_chunk(chunk, totals)
        for variant in range(GAME24_VARIANTS):
            game = Game24Http(variant, out_dir, http=False)
            game.setup()
            entries: list[list] = []
            with timed_episodes(game):
                for chunk in islice(game.chunks(), -(-len(game.problems) // GAME24_CHUNK)):
                    entries += game.run_chunk(chunk, totals)
                # game24_cached warms one cache with its whole pool
                pool = Chunk(f"game24_cached/{variant}", 0, "tout_bfs",
                             game.problems[:CACHED_POOL], cache=game.new_cache())
                reference[pool.key] = game.run_chunk(pool, totals)
            reference[f"game24/{variant}"] = entries
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    if totals.failed or totals.mismatches:
        raise SystemExit(f"episodes failed: {totals.failed}, {totals.mismatches[:5]}")
    return reference


def main() -> None:
    reference = build()
    with open(REFERENCE, "w", encoding="utf-8") as handle:
        handle.write("{\n")
        handle.write(",\n".join(f"{json.dumps(k)}: {json.dumps(v, separators=(',', ':'))}"
                                for k, v in sorted(reference.items())))
        handle.write("\n}\n")
    print(f"wrote {len(reference)} entries to {REFERENCE}")


if __name__ == "__main__":
    main()
