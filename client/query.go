// Structural queries over the wire: the client-side face of CmdQuery.
//
// Recent-mode queries are bounded-staleness reads and route like ReadRecent:
// round-robin across configured replicas with the read-your-writes fence (a
// replica answer must reflect at least the highest primary seq this client's
// own writes observed), falling back to the primary. Linearized queries
// always go to the primary — only its epoch pipeline can order the answer
// after every acknowledged write.
package client

import (
	"fmt"

	conn "repro"
	"repro/internal/wire"
)

// Query executes one structural query against the namespace. The request
// and result types are the conn package's (conn.QueryRequest selects the
// kind, operands and consistency tier; conn.QueryResult is the uniform
// answer). Result.Seq is the replication position the answer reflects. A
// sharded namespace answers no structural query: the server refuses it as a
// bad request.
func (ns *Namespace) Query(req conn.QueryRequest) (conn.QueryResult, error) {
	wreq := &wire.Request{Cmd: wire.CmdQuery, NS: ns.name,
		QKind: uint8(req.Kind), Linearized: req.Linearized,
		U: req.U, V: req.V, K: req.K}
	var resp *wire.Response
	var err error
	if req.Linearized {
		resp, err = ns.c.do(wreq)
	} else {
		resp, err = ns.c.doRead(wreq)
	}
	if err != nil {
		return conn.QueryResult{}, err
	}
	q := resp.Query
	if q == nil {
		return conn.QueryResult{}, fmt.Errorf("client: server returned no query body")
	}
	return conn.QueryResult{Seq: q.Seq, Found: q.Found, Size: q.Size,
		Count: q.Count, Verts: q.Verts, Hist: q.Hist}, nil
}

// KHop returns every vertex within k edges of u (including u), ascending.
// Served from the live structure on the server engine's dispatcher, between
// epochs; the call is still replica-eligible and fenced.
func (ns *Namespace) KHop(u int32, k uint32) ([]int32, error) {
	res, err := ns.Query(conn.QueryRequest{Kind: conn.QueryKHop, U: u, K: k})
	return res.Verts, err
}

// ComponentMembers returns the vertices of u's connected component,
// ascending, from the server's last published labelling.
func (ns *Namespace) ComponentMembers(u int32) ([]int32, error) {
	res, err := ns.Query(conn.QueryRequest{Kind: conn.QueryMembers, U: u})
	return res.Verts, err
}

// ComponentSize returns the size of u's connected component (at least 1)
// from the server's last published labelling.
func (ns *Namespace) ComponentSize(u int32) (uint64, error) {
	res, err := ns.Query(conn.QueryRequest{Kind: conn.QuerySize, U: u})
	return res.Size, err
}

// TreePath returns a spanning-forest path from u to v (endpoints included),
// or found=false when they are not connected. The path is simple and lies
// entirely in the server's current spanning forest; it is not necessarily a
// shortest path in the graph.
func (ns *Namespace) TreePath(u, v int32) (path []int32, found bool, err error) {
	res, err := ns.Query(conn.QueryRequest{Kind: conn.QueryPath, U: u, V: v})
	return res.Verts, res.Found, err
}

// ComponentAggregate returns the component count and a log2-bucketed
// component-size histogram (hist[i] counts components of size in
// [2^i, 2^(i+1))) from the server's last published labelling.
func (ns *Namespace) ComponentAggregate() (count uint64, hist []uint64, err error) {
	res, err := ns.Query(conn.QueryRequest{Kind: conn.QueryAggregate})
	return res.Count, res.Hist, err
}
