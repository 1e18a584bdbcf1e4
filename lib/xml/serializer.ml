(* Escapes [s.[off .. off+len-1]] into [buf], copying the runs between
   markup characters with one blit each. *)
let add_escaped buf ~attr s off len =
  let stop = off + len in
  let rec go i run =
    if i = stop then Buffer.add_substring buf s run (i - run)
    else
      let rep =
        match String.get s i with
        | '&' -> "&amp;"
        | '<' -> "&lt;"
        | '>' -> "&gt;"
        | '"' when attr -> "&quot;"
        | _ -> ""
      in
      if rep = "" then go (i + 1) run
      else begin
        Buffer.add_substring buf s run (i - run);
        Buffer.add_string buf rep;
        go (i + 1) (i + 1)
      end
  in
  go off off

let escape_into buf ~attr s = add_escaped buf ~attr s 0 (String.length s)

let add_name dict buf ~prefix ~local =
  if prefix <> 0 then begin
    Buffer.add_string buf (Name_dict.name dict prefix);
    Buffer.add_char buf ':'
  end;
  Buffer.add_string buf (Name_dict.name dict local)

let add_ns_decls dict buf decls =
  List.iter
    (fun (prefix, uri) ->
      Buffer.add_char buf ' ';
      if prefix = 0 then Buffer.add_string buf "xmlns"
      else begin
        Buffer.add_string buf "xmlns:";
        Buffer.add_string buf (Name_dict.name dict prefix)
      end;
      Buffer.add_string buf "=\"";
      escape_into buf ~attr:true (Name_dict.name dict uri);
      Buffer.add_char buf '"')
    decls

let add_start_tag dict buf ~prefix ~local ns_decls =
  Buffer.add_char buf '<';
  add_name dict buf ~prefix ~local;
  add_ns_decls dict buf ns_decls

let add_attribute dict buf ~prefix ~local s off len =
  Buffer.add_char buf ' ';
  add_name dict buf ~prefix ~local;
  Buffer.add_string buf "=\"";
  add_escaped buf ~attr:true s off len;
  Buffer.add_char buf '"'

let add_end_tag dict buf ~prefix ~local =
  Buffer.add_string buf "</";
  add_name dict buf ~prefix ~local;
  Buffer.add_char buf '>'

let add_comment buf s off len =
  Buffer.add_string buf "<!--";
  Buffer.add_substring buf s off len;
  Buffer.add_string buf "-->"

let add_pi buf target toff tlen data doff dlen =
  Buffer.add_string buf "<?";
  Buffer.add_substring buf target toff tlen;
  if dlen > 0 then begin
    Buffer.add_char buf ' ';
    Buffer.add_substring buf data doff dlen
  end;
  Buffer.add_string buf "?>"

let escape_text s =
  let buf = Buffer.create (String.length s + 8) in
  escape_into buf ~attr:false s;
  Buffer.contents buf

let escape_attr s =
  let buf = Buffer.create (String.length s + 8) in
  escape_into buf ~attr:true s;
  Buffer.contents buf

let make_sink dict buf =
  (* element-name stack so End_element can emit the matching close tag; a
     start tag is left open ("pending") so an immediately following
     End_element collapses to a self-closing tag *)
  let stack = ref [] in
  let pending = ref false in
  let close_pending () =
    if !pending then begin
      Buffer.add_char buf '>';
      pending := false
    end
  in
  fun token ->
    match token with
    | Token.Start_document | Token.End_document -> close_pending ()
    | Token.Start_element { name; attrs; ns_decls } ->
        close_pending ();
        stack := name :: !stack;
        add_start_tag dict buf ~prefix:name.Qname.prefix ~local:name.Qname.local ns_decls;
        List.iter
          (fun ({ name; value; _ } : Token.attr) ->
            add_attribute dict buf ~prefix:name.Qname.prefix ~local:name.Qname.local value 0
              (String.length value))
          attrs;
        pending := true
    | Token.End_element -> (
        match !stack with
        | name :: rest ->
            stack := rest;
            if !pending then begin
              Buffer.add_string buf "/>";
              pending := false
            end
            else add_end_tag dict buf ~prefix:name.Qname.prefix ~local:name.Qname.local
        | [] -> invalid_arg "Serializer: unbalanced End_element")
    | Token.Text { content; _ } ->
        close_pending ();
        escape_into buf ~attr:false content
    | Token.Comment c ->
        close_pending ();
        add_comment buf c 0 (String.length c)
    | Token.Pi { target; data } ->
        close_pending ();
        add_pi buf target 0 (String.length target) data 0 (String.length data)

let to_string ?(decl = false) dict tokens =
  let buf = Buffer.create 256 in
  if decl then Buffer.add_string buf "<?xml version=\"1.0\" encoding=\"UTF-8\"?>";
  let sink = make_sink dict buf in
  List.iter sink tokens;
  Buffer.contents buf
