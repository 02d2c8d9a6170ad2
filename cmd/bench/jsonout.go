package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// jsonOut receives one NDJSON record per measured data point so future
// runs can be diffed mechanically (perf trajectory tracking). The
// human-readable tables keep printing to stdout regardless.
//
// Records always accumulate in benchJSONFile in the working directory —
// committing that file after a run is how the perf trajectory builds up
// across PRs — and are additionally teed to the -json sink when given.
var jsonOut *json.Encoder

// benchJSONFile is the always-on NDJSON sink: the one trajectory file.
const benchJSONFile = "BENCH_PR10.json"

var jsonFiles []*os.File

// initJSON opens the NDJSON sinks: benchJSONFile unconditionally, plus the
// -json argument (a file path, or "-" for stdout) when present. Records of
// experiments NOT in this run survive in benchJSONFile — running a subset
// must not destroy the rest of the trajectory.
func initJSON(path string, running []string) error {
	keep := preservedRecords(benchJSONFile, running)
	f, err := os.Create(benchJSONFile)
	if err != nil {
		return err
	}
	for _, line := range keep {
		// Preserved records go to the trajectory file only, not the tee:
		// the -json sink is a view of this run.
		f.Write(line)
		f.Write([]byte{'\n'})
	}
	jsonFiles = append(jsonFiles, f)
	writers := []io.Writer{f}
	switch path {
	case "", benchJSONFile:
		// already covered by the always-on sink
	case "-":
		writers = append(writers, os.Stdout)
	default:
		f2, err := os.Create(path)
		if err != nil {
			return err
		}
		jsonFiles = append(jsonFiles, f2)
		writers = append(writers, f2)
	}
	jsonOut = json.NewEncoder(io.MultiWriter(writers...))
	return nil
}

func closeJSON() {
	for _, f := range jsonFiles {
		f.Close()
	}
}

// preservedRecords returns the NDJSON lines of path whose experiment tag
// is not about to be re-run (malformed lines are dropped). A missing file
// preserves nothing.
func preservedRecords(path string, running []string) [][]byte {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil
	}
	rerun := make(map[string]bool, len(running))
	for _, name := range running {
		rerun[name] = true
	}
	var keep [][]byte
	for _, line := range bytes.Split(data, []byte{'\n'}) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var rec struct {
			Experiment string `json:"experiment"`
		}
		if json.Unmarshal(line, &rec) != nil || rec.Experiment == "" || rerun[rec.Experiment] {
			continue
		}
		keep = append(keep, line)
	}
	return keep
}

// emitJSON writes one record to the -json sink (no-op without -json). Keys
// are flattened alongside the experiment name and sorted for stable diffs.
func emitJSON(experiment string, fields map[string]any) {
	if jsonOut == nil {
		return
	}
	keys := make([]string, 0, len(fields))
	for k := range fields {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	// json.Marshal sorts map keys already; flatten into one object with the
	// experiment tag first by building an ordered raw message.
	buf := []byte(fmt.Sprintf("{%q:%q", "experiment", experiment))
	for _, k := range keys {
		v, err := json.Marshal(fields[k])
		if err != nil {
			continue
		}
		kk, _ := json.Marshal(k)
		buf = append(buf, ',')
		buf = append(buf, kk...)
		buf = append(buf, ':')
		buf = append(buf, v...)
	}
	buf = append(buf, '}')
	jsonOut.Encode(json.RawMessage(buf))
}

// seconds converts a duration to float seconds for JSON records.
func seconds(d time.Duration) float64 { return d.Seconds() }
