package stats

import (
	"encoding/json"
	"testing"
)

// TestTableJSONPinned byte-pins the Table/Series export format: it is the
// `vbisweep -json` document, byte-compared between distributed and local
// runs. A break here means a field rename
// changed the export format — revert the rename rather than updating the
// expectation.
func TestTableJSONPinned(t *testing.T) {
	tab := Table{
		Title: "Figure 6",
		Rows:  []string{"mcf", "xz"},
		Series: []Series{
			{Label: "Native", Values: []float64{1, 1}},
			{Label: "VBI-Full", Values: []float64{1.25, 1.1}},
		},
	}
	b, err := json.Marshal(tab)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"Title":"Figure 6","Rows":["mcf","xz"],` +
		`"Series":[{"Label":"Native","Values":[1,1]},{"Label":"VBI-Full","Values":[1.25,1.1]}]}`
	if string(b) != want {
		t.Errorf("Table wire form changed:\n got %s\nwant %s", b, want)
	}
}
