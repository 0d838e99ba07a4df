#!/usr/bin/env python3
"""Builds the benchmark against this checkout and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload kem_closed --seed 1 --seconds 10 --trace 0

The build uses the workspace's own [profile.release] settings. The last
line of standard output is the result JSON; see perfbench/README.md.
"""

import os
import subprocess
import sys

MANIFEST = os.path.join("perfbench", "Cargo.toml")
RUN_TIMEOUT_S = 175


def release_profile(manifest):
    """The workspace manifest's [profile.release] settings, as key=value strings."""
    settings, inside = [], False
    with open(manifest, encoding="utf-8") as lines:
        for raw in lines:
            line = raw.split("#", 1)[0].strip()
            if line.startswith("["):
                inside = line == "[profile.release]"
            elif inside and "=" in line:
                key, value = (part.strip() for part in line.split("=", 1))
                settings.append(f"{key}={value}")
    return settings


def git_rev():
    if not os.path.isdir(".git"):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    saber = sorted(name for name in os.environ if name.startswith("SABER_"))
    if saber:
        print(
            f"perfbench: refusing to run with {', '.join(saber)} set: "
            "the program reads these variables and must be measured as shipped",
            file=sys.stderr,
        )
        return 2
    if not (os.path.isfile("Cargo.toml") and os.path.isdir("crates") and os.path.isfile(MANIFEST)):
        print("perfbench: run from the repository root; the workspace sources are missing", file=sys.stderr)
        return 2
    profile = release_profile("Cargo.toml")
    build = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST]
    for setting in profile:
        build += ["--config", f"profile.release.{setting}"]
    # Keep standard output for the result: build chatter goes to stderr.
    if subprocess.run(build, stdout=sys.stderr).returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join("perfbench", "target")
    exe = os.path.join(target, "release", "perfbench")
    command = [exe, *sys.argv[1:], "--rev", git_rev(), "--profile", " ".join(["release", *profile])]
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: the run took longer than {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
