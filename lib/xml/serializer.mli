(** Serialization services (§4.4): token stream back to XML text. The sink
    form lets any virtual-SAX iterator pipe events straight to output without
    materializing intermediate trees. *)

val escape_text : string -> string
val escape_attr : string -> string

val add_escaped : Buffer.t -> attr:bool -> string -> int -> int -> unit
(** [add_escaped buf ~attr s off len] appends [s.[off .. off+len-1]]
    escaped as text, or as an attribute value when [attr] (which also
    escapes the double quote). *)

val add_name : Name_dict.t -> Buffer.t -> prefix:int -> local:int -> unit
(** Appends the lexical name [prefix:local] ([local] when [prefix] is 0). *)

val add_ns_decls : Name_dict.t -> Buffer.t -> (int * int) list -> unit
(** Appends one namespace declaration attribute ([xmlns] or [xmlns:p])
    for each (prefix id, URI id) pair. *)

(** {1 Markup writers}

    The pieces {!make_sink} writes, over substrings [s.[off .. off+len-1]],
    so that a reader of stored records writes the same bytes without
    building tokens. A start tag is left open: the caller appends [">"], or
    ["/>"] for an element without children. *)

val add_start_tag :
  Name_dict.t -> Buffer.t -> prefix:int -> local:int -> (int * int) list -> unit
(** Appends [<name] and the namespace declarations. *)

val add_attribute :
  Name_dict.t -> Buffer.t -> prefix:int -> local:int -> string -> int -> int -> unit
(** Appends one attribute with its escaped value. *)

val add_end_tag : Name_dict.t -> Buffer.t -> prefix:int -> local:int -> unit
(** Appends [</name>]. *)

val add_comment : Buffer.t -> string -> int -> int -> unit
(** Appends a comment with the given content. *)

val add_pi : Buffer.t -> string -> int -> int -> string -> int -> int -> unit
(** [add_pi buf target toff tlen data doff dlen] appends a processing
    instruction; the data is separated by a space when not empty. *)

val make_sink : Name_dict.t -> Buffer.t -> Token.t -> unit
(** Event consumer appending markup to the buffer. *)

val to_string : ?decl:bool -> Name_dict.t -> Token.t list -> string
(** [decl] prepends an XML declaration (default false). *)
