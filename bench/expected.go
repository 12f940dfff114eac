package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
)

// defaultSeed is the seed expected.json is pinned for.
const defaultSeed = 1

//go:embed expected.json
var expectedJSON []byte

// expected holds the pinned virtual result of every workload at the default
// seed and full scale. An iteration that differs from it has failed: a change
// that only alters host performance must leave every one of these values as
// it is.
var expected = func() map[string]Virtual {
	m := map[string]Virtual{}
	if err := json.Unmarshal(expectedJSON, &m); err != nil {
		panic(fmt.Sprintf("bench/expected.json: %v", err))
	}
	return m
}()

// updateExpected runs one iteration of every workload at the default seed
// and rewrites the pinned values.
func updateExpected(path string) error {
	out := map[string]Virtual{}
	for _, def := range workloads {
		res := runIteration(def.prepare(defaultSeed, false), iterOpts{})
		if res.err != nil {
			return fmt.Errorf("%s: %w", def.Name, res.err)
		}
		out[def.Name] = res.virtual
		fmt.Printf("%-15s %+v\n", def.Name, res.virtual)
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
