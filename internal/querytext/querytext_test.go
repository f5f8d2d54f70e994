package querytext

import (
	"strings"
	"testing"

	"repro/internal/paperdata"
	"repro/internal/predicate"
)

func universe() *predicate.Universe {
	return predicate.NewUniverse(paperdata.FlightHotel())
}

func TestParsePredicate(t *testing.T) {
	u := universe()
	want := predicate.MustFromNames(u, [2]string{"To", "City"}, [2]string{"Airline", "Discount"})

	cases := []string{
		"Flight.To = Hotel.City AND Flight.Airline = Hotel.Discount",
		"flight.To = hotel.City and flight.Airline = hotel.Discount",
		"Hotel.City = Flight.To AND Hotel.Discount = Flight.Airline", // sides swapped
		"To = City ∧ Airline = Discount",                             // unqualified + unicode AND
		"To=City && Airline=Discount",
	}
	for _, c := range cases {
		got, err := ParsePredicate(u, c)
		if err != nil {
			t.Errorf("ParsePredicate(%q): %v", c, err)
			continue
		}
		if !got.Equal(want) {
			t.Errorf("ParsePredicate(%q) = %v, want %v", c, got, want)
		}
	}
}

func TestParseEmptyPredicate(t *testing.T) {
	u := universe()
	for _, c := range []string{"TRUE", "true", "⊤"} {
		got, err := ParsePredicate(u, c)
		if err != nil || !got.IsEmpty() {
			t.Errorf("ParsePredicate(%q) = %v, %v", c, got, err)
		}
	}
}

func TestParseErrors(t *testing.T) {
	u := universe()
	cases := []string{
		"",
		"Flight.To",                                // no equality
		"Flight.To = Hotel.City = Hotel.X",         // double equality
		"Flight.To = Flight.From",                  // both sides R
		"Hotel.City = Hotel.Discount",              // both sides P
		"Flight.Nope = Hotel.City",                 // unknown attribute
		"Nope.To = Hotel.City",                     // unknown relation
		"Flight.To = Hotel.City AND",               // dangling AND
		"= Hotel.City",                             // empty side
		"Flight.To = Hotel.City AND AND To = City", // empty condition
	}
	for _, c := range cases {
		if _, err := ParsePredicate(u, c); err == nil {
			t.Errorf("ParsePredicate(%q) accepted", c)
		}
	}
}

func TestParseAmbiguousUnqualified(t *testing.T) {
	// Build two schemas sharing an attribute name? relation.NewInstance
	// forbids that, so ambiguity cannot arise with valid instances — the
	// error path still guards against future loosening. Unknown plain name:
	u := universe()
	if _, err := ParsePredicate(u, "Zzz = City"); err == nil {
		t.Error("unknown unqualified attribute accepted")
	}
}

// TestParseFormatRoundTrip: every predicate's Format text, the empty
// conjunction's included, parses back to the predicate.
func TestParseFormatRoundTrip(t *testing.T) {
	u := universe()
	preds := []predicate.Pred{
		predicate.Empty(),
		predicate.MustFromNames(u, [2]string{"To", "City"}),
		predicate.MustFromNames(u, [2]string{"To", "City"}, [2]string{"From", "Discount"}),
	}
	for _, p := range preds {
		text := p.Format(u)
		got, err := ParsePredicate(u, text)
		if err != nil {
			t.Errorf("round trip of %q: %v", text, err)
			continue
		}
		if !got.Equal(p) {
			t.Errorf("round trip of %q = %v, want %v", text, got, p)
		}
	}
}

func TestSQLJoin(t *testing.T) {
	u := universe()
	p := predicate.MustFromNames(u, [2]string{"To", "City"}, [2]string{"Airline", "Discount"})
	got := SQL(u, p, SQLOptions{})
	want := `SELECT * FROM "Flight" JOIN "Hotel" ON "Flight"."To" = "Hotel"."City" AND "Flight"."Airline" = "Hotel"."Discount"`
	if got != want {
		t.Errorf("SQL = %q,\nwant  %q", got, want)
	}
}

func TestSQLCrossJoin(t *testing.T) {
	u := universe()
	got := SQL(u, predicate.Empty(), SQLOptions{})
	if !strings.Contains(got, "CROSS JOIN") {
		t.Errorf("empty predicate SQL = %q", got)
	}
}

func TestSQLSemijoin(t *testing.T) {
	u := universe()
	p := predicate.MustFromNames(u, [2]string{"To", "City"})
	got := SQL(u, p, SQLOptions{Semijoin: true})
	for _, frag := range []string{"SELECT DISTINCT", "EXISTS", `"Flight"."To" = "Hotel"."City"`} {
		if !strings.Contains(got, frag) {
			t.Errorf("semijoin SQL missing %q: %q", frag, got)
		}
	}
	// Empty semijoin: EXISTS over bare table.
	empty := SQL(u, predicate.Empty(), SQLOptions{Semijoin: true})
	if !strings.Contains(empty, "1 = 1") {
		t.Errorf("empty semijoin SQL = %q", empty)
	}
}

func TestSQLPretty(t *testing.T) {
	u := universe()
	p := predicate.MustFromNames(u, [2]string{"To", "City"}, [2]string{"Airline", "Discount"})
	got := SQL(u, p, SQLOptions{Pretty: true})
	if !strings.Contains(got, "\n") {
		t.Errorf("pretty SQL has no newlines: %q", got)
	}
}

func TestQuoteIdent(t *testing.T) {
	if quoteIdent(`we"ird`) != `"we""ird"` {
		t.Errorf("quoteIdent = %q", quoteIdent(`we"ird`))
	}
}
