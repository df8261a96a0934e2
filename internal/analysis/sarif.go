package analysis

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"path/filepath"
	"sort"
	"strings"
)

// SARIF 2.1.0 output for GitHub code scanning. The structures below are
// the subset of the spec the suite emits: one run, one driver carrying a
// rule per analyzer, one result per diagnostic. Suppressed findings are
// included as results carrying an inSource suppression with the
// directive's justification, so code scanning shows them as dismissed
// rather than open.

// SARIFSchemaURI and SARIFVersion identify the emitted format.
const (
	SARIFSchemaURI = "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json"
	SARIFVersion   = "2.1.0"
)

// SARIFLog is the top-level document.
type SARIFLog struct {
	Schema  string     `json:"$schema"`
	Version string     `json:"version"`
	Runs    []SARIFRun `json:"runs"`
}

// SARIFRun is one invocation of the suite.
type SARIFRun struct {
	Tool    SARIFTool     `json:"tool"`
	Results []SARIFResult `json:"results"`
}

// SARIFTool wraps the driver description.
type SARIFTool struct {
	Driver SARIFDriver `json:"driver"`
}

// SARIFDriver describes yosolint and its rule table.
type SARIFDriver struct {
	Name           string      `json:"name"`
	InformationURI string      `json:"informationUri,omitempty"`
	Rules          []SARIFRule `json:"rules"`
}

// SARIFRule is one analyzer.
type SARIFRule struct {
	ID               string       `json:"id"`
	ShortDescription SARIFMessage `json:"shortDescription"`
}

// SARIFMessage is the spec's message object.
type SARIFMessage struct {
	Text string `json:"text"`
}

// SARIFResult is one diagnostic.
type SARIFResult struct {
	RuleID              string             `json:"ruleId"`
	RuleIndex           int                `json:"ruleIndex"`
	Level               string             `json:"level"`
	Message             SARIFMessage       `json:"message"`
	Locations           []SARIFLocation    `json:"locations"`
	PartialFingerprints map[string]string  `json:"partialFingerprints,omitempty"`
	Suppressions        []SARIFSuppression `json:"suppressions,omitempty"`
}

// SARIFLocation wraps a physical location.
type SARIFLocation struct {
	PhysicalLocation SARIFPhysicalLocation `json:"physicalLocation"`
}

// SARIFPhysicalLocation is a file/region pair.
type SARIFPhysicalLocation struct {
	ArtifactLocation SARIFArtifactLocation `json:"artifactLocation"`
	Region           SARIFRegion           `json:"region"`
}

// SARIFArtifactLocation names the file, slash-separated and relative to
// the analysis root.
type SARIFArtifactLocation struct {
	URI string `json:"uri"`
}

// SARIFRegion is the 1-based position.
type SARIFRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn,omitempty"`
}

// SARIFSuppression records an in-source //yosolint: directive.
type SARIFSuppression struct {
	Kind          string `json:"kind"`
	Justification string `json:"justification,omitempty"`
}

// NewSARIF converts a diagnostic set into a SARIF 2.1.0 log. The rule
// table lists every analyzer in the suite (stable rule indices whether or
// not an analyzer fired); baseDir anchors the artifact URIs.
func NewSARIF(diags []Diagnostic, analyzers []*Analyzer, baseDir string) *SARIFLog {
	rules := make([]SARIFRule, 0, len(analyzers)+1)
	index := map[string]int{}
	for _, a := range analyzers {
		index[a.Name] = len(rules)
		rules = append(rules, SARIFRule{ID: a.Name, ShortDescription: SARIFMessage{Text: a.Doc}})
	}
	// The framework itself reports directive-hygiene findings under the
	// pseudo-analyzer "yosolint"; give them a rule too.
	if _, ok := index[DirectiveAnalyzerName]; !ok {
		index[DirectiveAnalyzerName] = len(rules)
		rules = append(rules, SARIFRule{ID: DirectiveAnalyzerName, ShortDescription: SARIFMessage{Text: "//yosolint: directive hygiene"}})
	}

	results := make([]SARIFResult, 0, len(diags))
	for _, d := range diags {
		ri, ok := index[d.Analyzer]
		if !ok {
			ri = len(rules)
			index[d.Analyzer] = ri
			rules = append(rules, SARIFRule{ID: d.Analyzer, ShortDescription: SARIFMessage{Text: d.Analyzer}})
		}
		res := SARIFResult{
			RuleID:    d.Analyzer,
			RuleIndex: ri,
			Level:     "error",
			Message:   SARIFMessage{Text: d.Message},
			Locations: []SARIFLocation{{
				PhysicalLocation: SARIFPhysicalLocation{
					ArtifactLocation: SARIFArtifactLocation{URI: artifactURI(d.Pos.Filename, baseDir)},
					Region:           SARIFRegion{StartLine: max(d.Pos.Line, 1), StartColumn: d.Pos.Column},
				},
			}},
			PartialFingerprints: map[string]string{
				"yosolintFingerprint/v1": fingerprint(d, baseDir),
			},
		}
		if d.Suppressed {
			res.Suppressions = []SARIFSuppression{{Kind: "inSource", Justification: d.Justification}}
		}
		results = append(results, res)
	}
	sort.SliceStable(results, func(i, j int) bool {
		a, b := results[i], results[j]
		au, bu := a.Locations[0].PhysicalLocation.ArtifactLocation.URI, b.Locations[0].PhysicalLocation.ArtifactLocation.URI
		if au != bu {
			return au < bu
		}
		if al, bl := a.Locations[0].PhysicalLocation.Region.StartLine, b.Locations[0].PhysicalLocation.Region.StartLine; al != bl {
			return al < bl
		}
		return a.RuleID < b.RuleID
	})

	return &SARIFLog{
		Schema:  SARIFSchemaURI,
		Version: SARIFVersion,
		Runs: []SARIFRun{{
			Tool:    SARIFTool{Driver: SARIFDriver{Name: "yosolint", Rules: rules}},
			Results: results,
		}},
	}
}

// fingerprint is the stable identity code scanning tracks a finding by: a
// SHA-256 over the analyzer name, the artifact URI and the message text.
// Line and column are excluded on purpose, so unrelated edits that shift
// code do not reopen a dismissed alert.
func fingerprint(d Diagnostic, baseDir string) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\x00%s\x00%s", d.Analyzer, artifactURI(d.Pos.Filename, baseDir), d.Message)
	return hex.EncodeToString(h.Sum(nil))[:32]
}

// artifactURI renders a filename as a slash-separated path relative to
// baseDir when it lies beneath it.
func artifactURI(name, baseDir string) string {
	if baseDir != "" {
		if rel, err := filepath.Rel(baseDir, name); err == nil && !strings.HasPrefix(rel, "..") {
			name = rel
		}
	}
	return filepath.ToSlash(name)
}

// ValidateSARIF structurally checks a serialized log against the parts of
// the SARIF 2.1.0 schema GitHub code scanning requires: version string,
// runs with a named tool driver, results whose ruleId/ruleIndex resolve
// in the rule table, and locations with a uri and a 1-based startLine.
// It decodes into generic maps so it exercises the emitted bytes, not the
// Go structs.
func ValidateSARIF(data []byte) error {
	var doc map[string]any
	if err := json.Unmarshal(data, &doc); err != nil {
		return fmt.Errorf("sarif: not valid JSON: %v", err)
	}
	if v, _ := doc["version"].(string); v != SARIFVersion {
		return fmt.Errorf("sarif: version %q, want %q", v, SARIFVersion)
	}
	if s, _ := doc["$schema"].(string); s != "" && !strings.Contains(s, "sarif-schema-2.1.0") {
		return fmt.Errorf("sarif: $schema %q does not name the 2.1.0 schema", s)
	}
	runs, ok := doc["runs"].([]any)
	if !ok || len(runs) == 0 {
		return fmt.Errorf("sarif: missing or empty runs array")
	}
	for ri, r := range runs {
		run, ok := r.(map[string]any)
		if !ok {
			return fmt.Errorf("sarif: runs[%d] is not an object", ri)
		}
		tool, _ := run["tool"].(map[string]any)
		driver, _ := tool["driver"].(map[string]any)
		if driver == nil {
			return fmt.Errorf("sarif: runs[%d] missing tool.driver", ri)
		}
		if name, _ := driver["name"].(string); name == "" {
			return fmt.Errorf("sarif: runs[%d] tool.driver.name is empty", ri)
		}
		ruleIDs := map[string]int{}
		if rules, ok := driver["rules"].([]any); ok {
			for i, rl := range rules {
				rule, ok := rl.(map[string]any)
				if !ok {
					return fmt.Errorf("sarif: runs[%d] rules[%d] is not an object", ri, i)
				}
				id, _ := rule["id"].(string)
				if id == "" {
					return fmt.Errorf("sarif: runs[%d] rules[%d] has no id", ri, i)
				}
				ruleIDs[id] = i
			}
		}
		results, ok := run["results"].([]any)
		if !ok {
			return fmt.Errorf("sarif: runs[%d] missing results array", ri)
		}
		for i, rr := range results {
			res, ok := rr.(map[string]any)
			if !ok {
				return fmt.Errorf("sarif: runs[%d] results[%d] is not an object", ri, i)
			}
			msg, _ := res["message"].(map[string]any)
			if text, _ := msg["text"].(string); text == "" {
				return fmt.Errorf("sarif: runs[%d] results[%d] has no message.text", ri, i)
			}
			id, _ := res["ruleId"].(string)
			want, known := ruleIDs[id]
			if !known {
				return fmt.Errorf("sarif: runs[%d] results[%d] ruleId %q not in rule table", ri, i, id)
			}
			if idx, ok := res["ruleIndex"].(float64); ok && int(idx) != want {
				return fmt.Errorf("sarif: runs[%d] results[%d] ruleIndex %d does not match rule %q at %d", ri, i, int(idx), id, want)
			}
			locs, ok := res["locations"].([]any)
			if !ok || len(locs) == 0 {
				return fmt.Errorf("sarif: runs[%d] results[%d] has no locations", ri, i)
			}
			loc, _ := locs[0].(map[string]any)
			phys, _ := loc["physicalLocation"].(map[string]any)
			art, _ := phys["artifactLocation"].(map[string]any)
			uri, _ := art["uri"].(string)
			if uri == "" {
				return fmt.Errorf("sarif: runs[%d] results[%d] has no artifactLocation.uri", ri, i)
			}
			if strings.Contains(uri, "\\") {
				return fmt.Errorf("sarif: runs[%d] results[%d] uri %q is not slash-separated", ri, i, uri)
			}
			region, _ := phys["region"].(map[string]any)
			if line, _ := region["startLine"].(float64); line < 1 {
				return fmt.Errorf("sarif: runs[%d] results[%d] startLine %v is not 1-based", ri, i, line)
			}
			if sups, ok := res["suppressions"].([]any); ok {
				for j, s := range sups {
					sup, _ := s.(map[string]any)
					if kind, _ := sup["kind"].(string); kind != "inSource" && kind != "external" {
						return fmt.Errorf("sarif: runs[%d] results[%d] suppressions[%d] kind %q invalid", ri, i, j, kind)
					}
				}
			}
		}
	}
	return nil
}
