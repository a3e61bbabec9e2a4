#!/usr/bin/env python3
"""Self-test for scripts/lint_invariants.py.

The invariant lint is itself load-bearing CI — a regex that silently
stops matching re-opens the determinism/locking/wire-seam holes it
guards. This harness builds tiny synthetic `src/` trees in a temp dir
and asserts, rule by rule, that the linter fires where it must, stays
quiet where it must, and honors waivers. Run directly or via CI:

    python3 scripts/lint_selftest.py
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from lint_invariants import Linter  # noqa: E402

FAILURES: list[str] = []


def lint_tree(files: dict[str, str]) -> Linter:
    """Materialize `files` (path -> contents) under a temp root and lint."""
    with tempfile.TemporaryDirectory(prefix="lint_selftest_") as tmp:
        root = Path(tmp)
        for rel, text in files.items():
            path = root / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text, encoding="utf-8")
        linter = Linter(root)
        for path in sorted(root.rglob("*")):
            if path.suffix in (".h", ".cpp") and path.is_file():
                if (root / "src") in path.parents:
                    linter.lint_file(path)
        return linter


def check(name: str, files: dict[str, str], want_rules: list[str],
          want_waived: int = 0) -> None:
    linter = lint_tree(files)
    got_rules = sorted(rule for _, _, rule, _ in linter.findings)
    if got_rules != sorted(want_rules):
        FAILURES.append(
            f"{name}: findings {got_rules} != expected {sorted(want_rules)}")
    if linter.waived_count != want_waived:
        FAILURES.append(
            f"{name}: {linter.waived_count} waiver(s) != expected {want_waived}")


# ---------------------------------------------------------------- raw-lock
check("raw-lock fires on std::mutex",
      {"src/core/a.cpp": "std::mutex mu_;\n"}, ["raw-lock"])
check("raw-lock fires once per offending line",
      {"src/audit/a.cpp": "std::unique_lock<std::mutex> l(mu);\n"},
      ["raw-lock"])
check("raw-lock exempt inside the wrapper header",
      {"src/util/thread_annotations.h": "std::mutex inner_;\n"}, [])
check("raw-lock waiver on the line above",
      {"src/core/a.cpp":
       "// lint:allow(raw-lock): intentionally exercised here\n"
       "std::mutex mu_;\n"},
      [], want_waived=1)
check("raw-lock in a comment does not fire",
      {"src/core/a.cpp": "// std::mutex is banned; use util::Mutex\n"}, [])

# ------------------------------------------------------------ detach-async
check("detach-async fires on .detach()",
      {"src/util/a.cpp": "worker.detach();\n"}, ["detach-async"])
check("detach-async fires on std::async",
      {"src/core/a.cpp": "auto f = std::async(run);\n"}, ["detach-async"])

# ---------------------------------------------------------------- fp-accum
check("fp-accum fires on declared-float +=",
      {"src/core/a.cpp": "double acc = 0.0;\nacc += x;\n"}, ["fp-accum"])
check("fp-accum picks up header declarations",
      {"src/core/a.h": "  double total_ = 0.0;\n",
       "src/core/a.cpp": "total_ += x;\n"}, ["fp-accum"])
check("fp-accum exempt in the kernel files",
      {"src/core/cosine_kernels.cpp": "double acc = 0.0;\nacc += x;\n"}, [])
check("fp-accum out of scope outside core/audit",
      {"src/data/a.cpp": "double acc = 0.0;\nacc += x;\n"}, [])
check("fp-accum fires on a C-array accumulator",
      {"src/core/a.cpp":
       "float acc[8] = {};\nfor (j = 0; j < 8; ++j) acc[j] += p * t[j];\n"},
      ["fp-accum"])
check("fp-accum fires on a std::array accumulator",
      {"src/core/a.cpp":
       "std::array<float, 8> acc{};\nacc[j] -= x;\n"}, ["fp-accum"])
check("fp-accum fires on a 2-D array with a nested subscript",
      {"src/audit/a.cpp": "double m[4][4] = {};\nm[i][idx[j]] += x;\n"},
      ["fp-accum"])
check("fp-accum array accumulator exempt in cosine_kernels.h",
      {"src/core/cosine_kernels.h":
       "std::array<float, 8> acc{};\nfloat tail[8] = {};\n"
       "acc[j] += p * t[j];\ntail[j] += x;\n"}, [])
check("fp-accum array accumulator waivable",
      {"src/core/a.cpp":
       "float acc[8] = {};\n"
       "// lint:allow(fp-accum): lanes fold in ascending k, pinned by a test\n"
       "acc[j] += x;\n"},
      [], want_waived=1)
check("fp-accum quiet on reads and stores of an array",
      {"src/core/a.cpp":
       "std::array<float, 8> dots = fold(p, t);\nbest = dots[j];\n"
       "dots[j] = 0.0F;\n"}, [])
check("fp-accum fires on std::accumulate",
      {"src/audit/a.cpp": "auto s = std::accumulate(v.begin(), v.end(), 0.0);\n"},
      ["fp-accum"])
check("fp-accum fires on a tensor::dot / frobenius_norm score",
      {"src/core/gnn4ip.cpp":
       "const float ab = tensor::dot(ha, hb);\n"
       "const float n = ha.frobenius_norm() * hb.frobenius_norm();\n"},
      ["fp-accum", "fp-accum"])
check("fp-accum quiet on tensor::dot outside core/audit and on cosine_cell",
      {"src/train/a.cpp": "const float ab = tensor::dot(ha, hb);\n",
       "src/core/gnn4ip.cpp":
       "return core::cosine_cell(a, b, d, row_norm(a) * row_norm(b));\n"
       "const float n = frobenius_norm_of(x);\n"},
      [])

# ------------------------------------------------------------ unordered-iter
check("unordered-iter fires on range-for over unordered member",
      {"src/core/a.h": "std::unordered_map<int, int> index_;\n",
       "src/core/a.cpp": "for (const auto& kv : index_) { use(kv); }\n"},
      ["unordered-iter"])
check("unordered-iter quiet for ordered containers",
      {"src/core/a.cpp":
       "std::map<int, int> index_;\n"
       "for (const auto& kv : index_) { use(kv); }\n"}, [])

# -------------------------------------------------------------- raw-socket
check("raw-socket fires on a networking header",
      {"src/core/a.cpp": "#include <sys/socket.h>\n"}, ["raw-socket"])
check("raw-socket fires on netinet/arpa/poll headers",
      {"src/audit/a.cpp":
       "#include <netinet/tcp.h>\n#include <arpa/inet.h>\n#include <poll.h>\n"},
      ["raw-socket", "raw-socket", "raw-socket"])
check("raw-socket fires on an unambiguous syscall",
      {"src/core/a.cpp": "int fd = socket(AF_INET, SOCK_STREAM, 0);\n"},
      ["raw-socket"])
check("raw-socket fires on sendmsg/recvmsg/writev",
      {"src/dist/a.cpp": "sendmsg(fd, &msg, 0);\nwritev(fd, iov, 2);\n"},
      ["raw-socket", "raw-socket"])
check("raw-socket fires on globally-qualified short names",
      {"src/core/a.cpp": "::connect(fd, addr, len);\n::poll(&pfd, 1, 50);\n"},
      ["raw-socket", "raw-socket"])
check("raw-socket quiet on project identifiers that shadow short names",
      {"src/dist/a.cpp":
       "auto corpus = DistCorpus::connect(endpoints, fp);\n"
       "pool_.shutdown();\n"
       "listener.accept(100);\n"
       "channel->send(frame);\n"}, [])
check("raw-socket quiet on declarations of shadowing members",
      {"src/dist/a.h":
       "static std::unique_ptr<DistCorpus> connect(\n"
       "    const std::vector<Endpoint>& endpoints);\n"
       "std::optional<Socket> accept(unsigned timeout_ms);\n"}, [])
check("raw-socket exempt under src/net/",
      {"src/net/socket.cpp":
       "#include <sys/socket.h>\n"
       "int fd = socket(AF_INET, SOCK_STREAM, 0);\n"
       "::connect(fd, addr, len);\n"}, [])
check("raw-socket waivable",
      {"src/core/a.cpp":
       "// lint:allow(raw-socket): diagnostics-only, bytes never parsed\n"
       "#include <poll.h>\n"},
      [], want_waived=1)
check("raw-socket in comments and strings is inert",
      {"src/core/a.cpp":
       "// callers must never call socket(2) directly\n"
       "/* ::connect(fd, addr, len) would bypass the seam */\n"}, [])

# ------------------------------------------------------------ serving-tape
check("serving-tape fires on a tape or its header in src/audit and src/core",
      {"src/audit/a.cpp":
       '#include "tensor/tape.h"\n'
       "static thread_local tensor::Tape tape;\n",
       "src/core/b.cpp": "gnn4ip::tensor::Tape tape;\n"},
      ["serving-tape", "serving-tape", "serving-tape"])
check("serving-tape quiet in training code and in comments",
      {"src/train/a.cpp":
       '#include "tensor/tape.h"\ntensor::Tape tape;\n',
       "src/audit/a.cpp":
       "// embeds off the tensor::Tape, unlike training\n"
       "tensor::Matrix h = model.embed_inference(t);\n"},
      [])

# ------------------------------------------------------------- exit status
clean = lint_tree({"src/core/a.cpp": "int x = 0;\n"})
if clean.findings:
    FAILURES.append(f"clean tree produced findings: {clean.findings}")

if FAILURES:
    for failure in FAILURES:
        print(f"lint_selftest: FAIL {failure}")
    print(f"lint_selftest: {len(FAILURES)} failure(s)")
    sys.exit(1)
print("lint_selftest: OK (all rule checks passed)")
