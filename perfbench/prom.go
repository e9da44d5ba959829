package main

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// series maps one Prometheus text-exposition series, written as
// name{labels}, to its value.
type series map[string]float64

// parseProm reads the text exposition format.
func parseProm(r io.Reader) (series, error) {
	out := make(series)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("metrics: malformed line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: value in %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// sum totals every series of the metric name across label sets.
func (s series) sum(name string) float64 {
	var t float64
	for k, v := range s {
		if k == name || strings.HasPrefix(k, name+"{") {
			t += v
		}
	}
	return t
}

// label returns the series of name with exactly one label pair.
func (s series) label(name, key, value string) float64 {
	return s[name+"{"+key+"=\""+value+"\"}"]
}

// delta returns after − before for every series in after.
func delta(before, after series) series {
	out := make(series, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// add merges o into s, summing shared series (twmd plus twmw).
func (s series) add(o series) {
	for k, v := range o {
		s[k] += v
	}
}
