#!/usr/bin/env bash
# bench-module.sh
# Vets and tests the nested benchmark module (bench/, module repro/bench with
# `replace repro => ../`) against the root module as checked out.  The root
# `go test ./...` does not descend into it, so this is the only check that a
# root-module change still builds under the ledger.  Offline by construction:
# the module has no dependencies beyond the root and the standard library.
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/../bench"
export GOFLAGS=-mod=mod GOPROXY=off
go vet ./...
go test ./...
