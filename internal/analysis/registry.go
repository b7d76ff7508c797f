package analysis

import (
	"fmt"
	"strings"
)

// All returns every analyzer in the suite, in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		Virtualclock,
		Seededrand,
		Nofloateq,
		Nopanic,
		Errcheck,
		Purity,
		Hotpath,
		Lockheld,
		Deadcode,
	}
}

// ByName resolves an analyzer by its Name; nil when unknown.
func ByName(name string) *Analyzer {
	for _, a := range All() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// Select resolves comma-separated -enable/-disable lists into the
// analyzers to run. Unknown names are an error, not a silent no-op: a
// typo must not turn the lint run into a vacuous pass. Both lists
// empty means the full suite.
func Select(enable, disable string) ([]*Analyzer, error) {
	resolve := func(list string) (map[string]bool, error) {
		if list == "" {
			return nil, nil
		}
		names := map[string]bool{}
		for _, name := range strings.Split(list, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			if ByName(name) == nil {
				return nil, fmt.Errorf("unknown analyzer %q (run with -list to see the suite)", name)
			}
			names[name] = true
		}
		return names, nil
	}
	enabled, err := resolve(enable)
	if err != nil {
		return nil, err
	}
	disabled, err := resolve(disable)
	if err != nil {
		return nil, err
	}
	var out []*Analyzer
	for _, a := range All() {
		if enabled != nil && !enabled[a.Name] {
			continue
		}
		if disabled[a.Name] {
			continue
		}
		out = append(out, a)
	}
	return out, nil
}
