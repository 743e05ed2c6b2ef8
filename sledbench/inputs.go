package main

import (
	"encoding/gob"
	"fmt"
	"io"
)

// Inputs travel from the gen child to the measuring process (and on to
// the set-up probes) as one gob value.

func encodeInputs(w io.Writer, inputs any) error {
	return gob.NewEncoder(w).Encode(inputs)
}

func decodeInputs(workload string, r io.Reader) (any, error) {
	var in any
	switch workload {
	case "repro":
		in = &reproInputs{}
	case "rx":
		in = &rxInputs{}
	case "tx":
		in = &txInputs{}
	default:
		return nil, fmt.Errorf("unknown workload %q", workload)
	}
	return in, gob.NewDecoder(r).Decode(in)
}
