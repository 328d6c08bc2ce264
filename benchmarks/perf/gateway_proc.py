"""The benchmark-owned gateway process of ``gateway_small``.

Runs ``repro.net.Gateway`` in its own interpreter (so the closed-loop
client never shares a GIL with the server), announces itself through a
ready file, drains on SIGTERM, and on the way out writes the peak RSS of
itself and of its largest reaped worker to ``<ready-file>.rusage``.
"""

from __future__ import annotations

import json
import resource
import sys

#: the one tenant of the benchmark; limits high enough never to refuse
TENANT = {"name": "bench", "api_key": "key-bench"}
#: sized so the admission leak (``AdmissionController.on_started`` is
#: never called, so a tenant's ``queued`` count never drains) cannot turn
#: into ``429 queue-share`` within one run: 8192 accepted jobs fit
MAX_QUEUE = 8192


def main(argv) -> int:
    durable_dir, loops_dir, ready_file = argv
    from repro.net import Gateway, Tenant
    gw = Gateway(
        workers=1, port=0, durable_dir=durable_dir,
        loops_cache_dir=loops_dir, max_queue=MAX_QUEUE,
        tenants=[Tenant(TENANT["name"], TENANT["api_key"], rate=1e9,
                        burst=1e9, max_concurrent=1 << 30, queue_share=1.0)],
        ready_file=ready_file)
    gw.serve_forever()                    # returns after SIGTERM drained it
    usage = {
        "gateway_maxrss_kb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss,
        "worker_maxrss_kb": resource.getrusage(
            resource.RUSAGE_CHILDREN).ru_maxrss,
    }
    with open(ready_file + ".rusage", "w", encoding="utf-8") as f:
        json.dump(usage, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
