package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"time"
)

// writeOp is one seeded writer op: insert an <aka> under a show, then
// delete exactly that aka again.
type writeOp struct {
	insert, remove []byte
}

const (
	insertQuery = `FOR $s IN imdb/show WHERE $s/title = c1 RETURN $s`
	deleteQuery = `FOR $s IN imdb/show, $k IN $s/aka WHERE $s/title = c1 AND $k = c2 RETURN $k`
)

func writeOps(seed int64, n int, ix *showIndex) []writeOp {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]writeOp, n)
	for i := range ops {
		title := ix.titles[rng.Intn(len(ix.titles))]
		aka := fmt.Sprintf("perfbench aka %d", i)
		ops[i].insert, _ = json.Marshal(map[string]any{
			"query": insertQuery, "params": map[string]string{"c1": title},
			"fragment": "<aka>" + aka + "</aka>",
		})
		ops[i].remove, _ = json.Marshal(map[string]any{
			"query": deleteQuery, "params": map[string]string{"c1": title, "c2": aka},
		})
	}
	return ops
}

var (
	insertedOne = []byte("{\"inserted\":1}\n")
	deletedOne  = []byte("{\"deleted\":1}\n")
)

// postWrite runs one writer op through the handler, timed as one unit.
func (c *client) postWrite(op writeOp) (time.Duration, error) {
	d1, err := c.post("/tenants/"+tenantName+"/insert", op.insert)
	if err != nil {
		return d1, err
	}
	if !bytes.Equal(c.w.body.Bytes(), insertedOne) {
		return d1, fmt.Errorf("insert answered %q, want %q", c.w.body.Bytes(), insertedOne)
	}
	d2, err := c.post("/tenants/"+tenantName+"/delete", op.remove)
	if err != nil {
		return d1 + d2, err
	}
	if !bytes.Equal(c.w.body.Bytes(), deletedOne) {
		return d1 + d2, fmt.Errorf("delete answered %q, want %q", c.w.body.Bytes(), deletedOne)
	}
	return d1 + d2, nil
}
