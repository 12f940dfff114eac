//go:build race

package main

// raceEnabled trims the tests under the race detector: the layer probes
// start 16384-rank worlds and the paperbench comparison runs full-size MD
// simulations, which take minutes there without exercising any harness
// concurrency the quick workloads do not.
const raceEnabled = true
