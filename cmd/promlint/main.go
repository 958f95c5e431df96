// Command promlint validates a Prometheus text-exposition payload read
// from stdin against the metrics package's grammar checker — the same
// validator the farm's tests run. CI pipes live scrapes through it so a
// malformed family fails the build, not the first real scrape.
//
// Usage:
//
//	curl -fsS host/metrics | promlint
package main

import (
	"fmt"
	"io"
	"os"

	"asdsim/internal/metrics"
)

func main() {
	payload, err := io.ReadAll(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "promlint: read stdin:", err)
		os.Exit(2)
	}
	if len(payload) == 0 {
		fmt.Fprintln(os.Stderr, "promlint: empty payload")
		os.Exit(2)
	}
	if err := metrics.Lint(payload); err != nil {
		fmt.Fprintln(os.Stderr, "promlint:", err)
		os.Exit(1)
	}
}
