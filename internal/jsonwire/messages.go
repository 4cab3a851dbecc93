package jsonwire

// The JSON messages of the simulated provider and OAuth APIs. A message
// a side writes has an AppendJSON encoder, its fields in json.Marshal's
// order (a body the real API wrote as a map declares its fields in key
// order); a message a side reads on every upload has a Decode method
// whose parser, read, takes the encoder's form (the others are read with
// json.Unmarshal). TestWireCodecMatchesMarshal and
// FuzzWireDecode hold both to encoding/json: a field added to a message
// must be added to its encoder and its parser, in declaration order.
// Each type spells its Decode out: a generic one would call read through
// a dictionary, which moves the scanner to the heap.

// FileMeta is a stored object's metadata: the body of every commit's
// answer and of Drive's and OneDrive's metadata reads, and Dropbox's
// Dropbox-API-Result download header.
type FileMeta struct {
	ID   string  `json:"id"`
	Name string  `json:"name"`
	Size float64 `json:"size"`
	MD5  string  `json:"md5,omitempty"`
}

// AppendJSON appends m as json.Marshal writes it.
func (m FileMeta) AppendJSON(b []byte) []byte {
	b = append(b, `{"id":`...)
	b = AppendString(b, m.ID)
	b = append(b, `,"name":`...)
	b = AppendString(b, m.Name)
	b = append(b, `,"size":`...)
	b = AppendFloat(b, m.Size)
	if m.MD5 != "" {
		b = append(b, `,"md5":`...)
		b = AppendString(b, m.MD5)
	}
	return append(b, '}')
}

func (m *FileMeta) read(s *scanner) {
	*m = FileMeta{}
	s.want('{')
	if s.field("id") {
		m.ID = s.str()
	}
	if s.field("name") {
		m.Name = s.str()
	}
	if s.field("size") {
		m.Size = s.num()
	}
	if s.field("md5") {
		m.MD5 = s.str()
	}
	s.want('}')
}

// Decode sets m to the message in data, as json.Unmarshal would.
func (m *FileMeta) Decode(data []byte) (err error) {
	s := scanner{data: string(data)}
	if m.read(&s); !s.end() {
		*m, err = unmarshal[FileMeta](data)
	}
	return err
}

// FileList is Drive's files.list answer.
type FileList struct {
	Files []FileMeta `json:"files"`
}

// AppendJSON appends l as json.Marshal writes it; nil Files is null.
func (l FileList) AppendJSON(b []byte) []byte {
	b = append(b, `{"files":`...)
	if l.Files == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i := range l.Files {
			if i > 0 {
				b = append(b, ',')
			}
			b = l.Files[i].AppendJSON(b)
		}
		b = append(b, ']')
	}
	return append(b, '}')
}

// ErrorBody is a failed request's answer: the providers' error bodies
// and the OAuth token endpoint's (RFC 6749 §5.2).
type ErrorBody struct {
	Error string `json:"error"`
}

// AppendJSON appends e as json.Marshal writes it.
func (e ErrorBody) AppendJSON(b []byte) []byte {
	b = append(b, `{"error":`...)
	b = AppendString(b, e.Error)
	return append(b, '}')
}

// Token is the OAuth token endpoint's answer (RFC 6749 §5.1).
type Token struct {
	AccessToken string  `json:"access_token"`
	TokenType   string  `json:"token_type"`
	ExpiresIn   float64 `json:"expires_in"`
}

// AppendJSON appends t as json.Marshal writes it.
func (t Token) AppendJSON(b []byte) []byte {
	b = append(b, `{"access_token":`...)
	b = AppendString(b, t.AccessToken)
	b = append(b, `,"token_type":`...)
	b = AppendString(b, t.TokenType)
	b = append(b, `,"expires_in":`...)
	b = AppendFloat(b, t.ExpiresIn)
	return append(b, '}')
}

func (t *Token) read(s *scanner) {
	*t = Token{}
	s.want('{')
	if s.field("access_token") {
		t.AccessToken = s.str()
	}
	if s.field("token_type") {
		t.TokenType = s.str()
	}
	if s.field("expires_in") {
		t.ExpiresIn = s.num()
	}
	s.want('}')
}

// Decode sets t to the message in data, as json.Unmarshal would.
func (t *Token) Decode(data []byte) (err error) {
	s := scanner{data: string(data)}
	if t.read(&s); !s.end() {
		*t, err = unmarshal[Token](data)
	}
	return err
}

// DriveInit is the metadata body of Drive's resumable-session initiate.
type DriveInit struct {
	Name string  `json:"name"`
	Size float64 `json:"size"`
}

// AppendJSON appends d as json.Marshal writes it.
func (d DriveInit) AppendJSON(b []byte) []byte {
	b = append(b, `{"name":`...)
	b = AppendString(b, d.Name)
	b = append(b, `,"size":`...)
	b = AppendFloat(b, d.Size)
	return append(b, '}')
}

func (d *DriveInit) read(s *scanner) {
	*d = DriveInit{}
	s.want('{')
	if s.field("name") {
		d.Name = s.str()
	}
	if s.field("size") {
		d.Size = s.num()
	}
	s.want('}')
}

// Decode sets d to the message in data, as json.Unmarshal would.
func (d *DriveInit) Decode(data []byte) (err error) {
	s := scanner{data: string(data)}
	if d.read(&s); !s.end() {
		*d, err = unmarshal[DriveInit](data)
	}
	return err
}

// UploadSession is OneDrive's createUploadSession answer (a map on the
// real API, so its fields are in key order).
type UploadSession struct {
	ExpirationDateTime string `json:"expirationDateTime"`
	UploadURL          string `json:"uploadUrl"`
}

// AppendJSON appends u as json.Marshal writes it.
func (u UploadSession) AppendJSON(b []byte) []byte {
	b = append(b, `{"expirationDateTime":`...)
	b = AppendString(b, u.ExpirationDateTime)
	b = append(b, `,"uploadUrl":`...)
	b = AppendString(b, u.UploadURL)
	return append(b, '}')
}

func (u *UploadSession) read(s *scanner) {
	*u = UploadSession{}
	s.want('{')
	if s.field("expirationDateTime") {
		u.ExpirationDateTime = s.str()
	}
	if s.field("uploadUrl") {
		u.UploadURL = s.str()
	}
	s.want('}')
}

// Decode sets u to the message in data, as json.Unmarshal would.
func (u *UploadSession) Decode(data []byte) (err error) {
	s := scanner{data: string(data)}
	if u.read(&s); !s.end() {
		*u, err = unmarshal[UploadSession](data)
	}
	return err
}

// NextRanges is OneDrive's answer to a fragment that leaves the upload
// incomplete.
type NextRanges struct {
	NextExpectedRanges []string `json:"nextExpectedRanges"`
}

// AppendJSON appends r as json.Marshal writes it.
func (r NextRanges) AppendJSON(b []byte) []byte {
	b = append(b, `{"nextExpectedRanges":`...)
	b = AppendStrings(b, r.NextExpectedRanges)
	return append(b, '}')
}

// ComposeRequest is the body of the compose call that commits a striped
// upload (a map on the client, so its fields are in key order).
type ComposeRequest struct {
	MD5   string   `json:"md5"`
	Name  string   `json:"name"`
	Parts []string `json:"parts"`
}

// AppendJSON appends c as json.Marshal writes it.
func (c ComposeRequest) AppendJSON(b []byte) []byte {
	b = append(b, `{"md5":`...)
	b = AppendString(b, c.MD5)
	b = append(b, `,"name":`...)
	b = AppendString(b, c.Name)
	b = append(b, `,"parts":`...)
	b = AppendStrings(b, c.Parts)
	return append(b, '}')
}

// --- Dropbox ---

// SessionStart is Dropbox's upload_session/start answer.
type SessionStart struct {
	SessionID string `json:"session_id"`
}

// AppendJSON appends st as json.Marshal writes it.
func (st SessionStart) AppendJSON(b []byte) []byte {
	b = append(b, `{"session_id":`...)
	b = AppendString(b, st.SessionID)
	return append(b, '}')
}

func (st *SessionStart) read(s *scanner) {
	*st = SessionStart{}
	s.want('{')
	if s.field("session_id") {
		st.SessionID = s.str()
	}
	s.want('}')
}

// Decode sets st to the message in data, as json.Unmarshal would.
func (st *SessionStart) Decode(data []byte) (err error) {
	s := scanner{data: string(data)}
	if st.read(&s); !s.end() {
		*st, err = unmarshal[SessionStart](data)
	}
	return err
}

// OffsetConflict is Dropbox's 409 answer to an append or finish at the
// wrong offset (a map on the real API, so its fields are in key order).
type OffsetConflict struct {
	CorrectOffset float64 `json:"correct_offset"`
	Error         string  `json:"error"`
}

// AppendJSON appends o as json.Marshal writes it.
func (o OffsetConflict) AppendJSON(b []byte) []byte {
	b = append(b, `{"correct_offset":`...)
	b = AppendFloat(b, o.CorrectOffset)
	b = append(b, `,"error":`...)
	b = AppendString(b, o.Error)
	return append(b, '}')
}

// DropboxPath is a Dropbox-API-Arg naming a file, and the commit of a
// session's finish.
type DropboxPath struct {
	Path string `json:"path"`
}

// AppendJSON appends p as json.Marshal writes it.
func (p DropboxPath) AppendJSON(b []byte) []byte {
	b = append(b, `{"path":`...)
	b = AppendString(b, p.Path)
	return append(b, '}')
}

func (p *DropboxPath) read(s *scanner) {
	*p = DropboxPath{}
	s.want('{')
	if s.field("path") {
		p.Path = s.str()
	}
	s.want('}')
}

// DropboxCursor is an upload session's position.
type DropboxCursor struct {
	SessionID string  `json:"session_id"`
	Offset    float64 `json:"offset"`
}

// AppendJSON appends c as json.Marshal writes it.
func (c DropboxCursor) AppendJSON(b []byte) []byte {
	b = append(b, `{"session_id":`...)
	b = AppendString(b, c.SessionID)
	b = append(b, `,"offset":`...)
	b = AppendFloat(b, c.Offset)
	return append(b, '}')
}

func (c *DropboxCursor) read(s *scanner) {
	*c = DropboxCursor{}
	s.want('{')
	if s.field("session_id") {
		c.SessionID = s.str()
	}
	if s.field("offset") {
		c.Offset = s.num()
	}
	s.want('}')
}

// DropboxAppend is the Dropbox-API-Arg of upload_session/append_v2.
type DropboxAppend struct {
	Cursor DropboxCursor `json:"cursor"`
}

// AppendJSON appends a as json.Marshal writes it.
func (a DropboxAppend) AppendJSON(b []byte) []byte {
	b = append(b, `{"cursor":`...)
	b = a.Cursor.AppendJSON(b)
	return append(b, '}')
}

// DropboxFinish is the Dropbox-API-Arg of upload_session/finish.
type DropboxFinish struct {
	Commit DropboxPath   `json:"commit"`
	Cursor DropboxCursor `json:"cursor"`
}

// AppendJSON appends f as json.Marshal writes it.
func (f DropboxFinish) AppendJSON(b []byte) []byte {
	b = append(b, `{"commit":`...)
	b = f.Commit.AppendJSON(b)
	b = append(b, `,"cursor":`...)
	b = f.Cursor.AppendJSON(b)
	return append(b, '}')
}

// DropboxArg is any Dropbox-API-Arg as the server reads it: the union
// of DropboxPath, DropboxAppend, DropboxFinish and the empty {} of
// upload_session/start. Its parser takes their keys in key order.
type DropboxArg struct {
	Commit *DropboxPath   `json:"commit,omitempty"`
	Cursor *DropboxCursor `json:"cursor,omitempty"`
	Path   string         `json:"path,omitempty"`
}

func (a *DropboxArg) read(s *scanner) {
	*a = DropboxArg{}
	s.want('{')
	if s.field("commit") {
		a.Commit = new(DropboxPath)
		a.Commit.read(s)
	}
	if s.field("cursor") {
		a.Cursor = new(DropboxCursor)
		a.Cursor.read(s)
	}
	if s.field("path") {
		a.Path = s.str()
	}
	s.want('}')
}

// Decode sets a to the header value raw, as json.Unmarshal would.
func (a *DropboxArg) Decode(raw string) (err error) {
	s := scanner{data: raw}
	if a.read(&s); !s.end() {
		*a, err = unmarshal[DropboxArg]([]byte(raw))
	}
	return err
}
