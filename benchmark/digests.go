package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
)

// digests.json records each workload's output digest per seed at the
// benchmark's own sizes: the plan digest (plan-drupal), the digest of
// the grid's simulation results (sweep-verilator), or the digest of the
// epoch plan digests (rolling-finagle). A run whose digest differs from
// the recorded one fails its check.
//
//go:embed digests.json
var digestsJSON []byte

func goldenDigest(sp spec, seed uint64) (string, bool) {
	var all map[string]string
	if err := json.Unmarshal(digestsJSON, &all); err != nil {
		panic(fmt.Sprintf("digests.json: %v", err)) // embedded at build time
	}
	d, ok := all[digestKey(sp, seed)]
	return d, ok
}

func digestKey(sp spec, seed uint64) string {
	return fmt.Sprintf("%s/blocks=%d/seed=%d", sp.name, sp.blocks, seed)
}
